// Package control implements the adaptive relaxation controller behind
// relaxd's -jobsched auto mode: a feedback loop that tunes how much
// scheduling relaxation the service buys itself, online, from the metrics
// the service already records.
//
// The paper's trade — relaxed scheduling exchanges a bounded amount of
// priority-order error for throughput — is exposed in relaxd as two static
// knobs: the job-queue relaxation k (how far from strict priority order the
// pending queue may dispatch) and the executor batch size (how many tasks a
// worker drains per scheduler acquisition, which behaves like extra
// relaxation of size B). This package closes the loop over both with one
// additive-increase / multiplicative-decrease (AIMD) policy:
//
//   - Widen (additive): when the queue is under pressure — p99 queue
//     latency above the operator's SLO, or queue depth near the admission
//     bound — relaxation is not earning its keep; raise k by KStep and the
//     batch size by BatchStep, drifting toward FIFO-like laxity.
//   - Tighten (multiplicative): when the observed windowed rank error
//     exceeds the operator's rank SLO, the service is paying more ordering
//     error than the operator contracted for; halve k and the batch size,
//     snapping back toward exact. Quality violations dominate pressure: if
//     both fire in one window, the controller tightens.
//   - Hold: otherwise leave the knobs alone.
//
// The controller is deliberately pure: Step consumes a Sample the caller
// assembled from its own sensors (internal/ranktrack for rank error, the
// change in the service's queue-latency histogram since the previous
// window for p99) and returns the new targets. It reads no clocks and no
// global state, so scripted load traces drive it deterministically in
// tests — see the package example and the trajectory tests.
package control

import "fmt"

// Default knob bounds and steps, used by Config.withDefaults.
const (
	// DefaultMaxK caps how far the controller will relax the job queue; the
	// k-bounded queue's hard rank guarantee makes this also a hard cap on
	// any single dispatch's rank error.
	DefaultMaxK = 64
	// DefaultMaxBatch caps the executor batch size.
	DefaultMaxBatch = 256
	// DefaultBatchStep is the additive batch increase per widen step.
	DefaultBatchStep = 8
	// DefaultHighWater is the queue-depth fraction of capacity above which
	// the controller widens even before the latency SLO trips.
	DefaultHighWater = 0.75
)

// Config bounds and targets for a Controller. Zero values select the
// documented defaults.
type Config struct {
	// RankSLO is the operator's bound on the windowed mean rank error
	// (pending jobs that were strictly better than the dispatched one).
	// A window whose mean exceeds it triggers a multiplicative tighten.
	RankSLO float64
	// P99SLOMs is the operator's p99 queue-latency target in milliseconds.
	// A window whose p99 exceeds it triggers an additive widen.
	P99SLOMs float64

	// MinK and MaxK bound the job-queue relaxation (defaults 1 and
	// DefaultMaxK); InitialK is the starting point (default MinK — start
	// exact, earn relaxation).
	MinK, MaxK, InitialK int
	// MinBatch and MaxBatch bound the executor batch size (defaults 1 and
	// DefaultMaxBatch); InitialBatch is the starting point (default
	// MinBatch).
	MinBatch, MaxBatch, InitialBatch int
	// KStep and BatchStep are the additive increments of a widen step
	// (defaults 1 and DefaultBatchStep).
	KStep, BatchStep int
	// HighWater is the queue-depth fraction of capacity that triggers a
	// widen on its own (default DefaultHighWater).
	HighWater float64
}

func (c Config) withDefaults() Config {
	if c.MinK == 0 {
		c.MinK = 1
	}
	if c.MaxK == 0 {
		c.MaxK = DefaultMaxK
	}
	if c.InitialK == 0 {
		c.InitialK = c.MinK
	}
	if c.MinBatch == 0 {
		c.MinBatch = 1
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.InitialBatch == 0 {
		c.InitialBatch = c.MinBatch
	}
	if c.KStep == 0 {
		c.KStep = 1
	}
	if c.BatchStep == 0 {
		c.BatchStep = DefaultBatchStep
	}
	if c.HighWater == 0 {
		c.HighWater = DefaultHighWater
	}
	return c
}

func (c Config) validate() error {
	if c.RankSLO < 0 {
		return fmt.Errorf("control: rank SLO must be non-negative, got %g", c.RankSLO)
	}
	if c.P99SLOMs < 0 {
		return fmt.Errorf("control: p99 SLO must be non-negative, got %gms", c.P99SLOMs)
	}
	if c.MinK < 1 || c.MaxK < c.MinK {
		return fmt.Errorf("control: need 1 <= MinK <= MaxK, got [%d, %d]", c.MinK, c.MaxK)
	}
	if c.InitialK < c.MinK || c.InitialK > c.MaxK {
		return fmt.Errorf("control: InitialK %d outside [%d, %d]", c.InitialK, c.MinK, c.MaxK)
	}
	if c.MinBatch < 1 || c.MaxBatch < c.MinBatch {
		return fmt.Errorf("control: need 1 <= MinBatch <= MaxBatch, got [%d, %d]", c.MinBatch, c.MaxBatch)
	}
	if c.InitialBatch < c.MinBatch || c.InitialBatch > c.MaxBatch {
		return fmt.Errorf("control: InitialBatch %d outside [%d, %d]", c.InitialBatch, c.MinBatch, c.MaxBatch)
	}
	if c.KStep < 1 || c.BatchStep < 1 {
		return fmt.Errorf("control: widen steps must be at least 1, got KStep=%d BatchStep=%d", c.KStep, c.BatchStep)
	}
	if c.HighWater <= 0 || c.HighWater > 1 {
		return fmt.Errorf("control: HighWater must be in (0, 1], got %g", c.HighWater)
	}
	return nil
}

// Sample is one control window's sensor readings, assembled by the caller
// from measurements it already makes.
type Sample struct {
	// QueueDepth is the current number of pending jobs; QueueCap is the
	// admission bound it is judged against.
	QueueDepth, QueueCap int
	// RankErr is the mean rank error of the dispatches in this window.
	// Negative means the window saw no dispatches — no quality signal, so
	// the rank check is skipped rather than misread as "perfect".
	RankErr float64
	// P99Ms is the p99 queue latency in milliseconds of the jobs
	// dispatched in this window; zero when the window has no samples.
	P99Ms float64
}

// Action classifies a Step's decision.
type Action string

const (
	// Widen raised k/batch additively in response to queue pressure.
	Widen Action = "widen"
	// Tighten halved k/batch in response to a rank-error SLO violation.
	Tighten Action = "tighten"
	// Hold left the knobs unchanged (no trigger, or a trigger already
	// pinned at its bound).
	Hold Action = "hold"
)

// Decision is the controller's output for one window: the knob targets the
// caller should apply.
type Decision struct {
	// K is the job-queue relaxation target.
	K int
	// Batch is the executor batch-size target.
	Batch int
	// Action records what this step did.
	Action Action
}

// Status is a snapshot of the controller's state and counters, the source
// of the controller section of /v1/metrics.
type Status struct {
	// K and Batch are the current targets.
	K, Batch int
	// Steps counts Step calls; Widened and Tightened count the steps that
	// actually moved a knob.
	Steps, Widened, Tightened int64
	// RankViolations and P99Violations count control windows whose sample
	// breached the respective SLO — breaches are counted even when the
	// knobs were already pinned at their bounds.
	RankViolations, P99Violations int64
	// LastAdjustment describes the most recent widen or tighten,
	// human-readably ("" until the first adjustment).
	LastAdjustment string
}

// Controller is the AIMD state machine. It is not safe for concurrent use;
// callers (the service's control loop) serialize Step and Status.
type Controller struct {
	cfg    Config
	k      int
	batch  int
	status Status
}

// New validates the configuration and returns a controller starting at
// InitialK/InitialBatch.
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, k: cfg.InitialK, batch: cfg.InitialBatch}
	c.status.K, c.status.Batch = c.k, c.batch
	return c, nil
}

// Config returns the controller's effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Step consumes one window's sample and returns the knob targets. Rank
// violations dominate pressure: a window that breaches both SLOs tightens.
func (c *Controller) Step(s Sample) Decision {
	c.status.Steps++
	rankBreach := s.RankErr >= 0 && s.RankErr > c.cfg.RankSLO
	p99Breach := s.P99Ms > c.cfg.P99SLOMs
	depthHigh := s.QueueCap > 0 &&
		float64(s.QueueDepth) >= c.cfg.HighWater*float64(s.QueueCap)
	if rankBreach {
		c.status.RankViolations++
	}
	if p99Breach {
		c.status.P99Violations++
	}

	action := Hold
	switch {
	case rankBreach:
		nk := max(c.k/2, c.cfg.MinK)
		nb := max(c.batch/2, c.cfg.MinBatch)
		if nk != c.k || nb != c.batch {
			c.k, c.batch = nk, nb
			c.status.Tightened++
			c.status.LastAdjustment = fmt.Sprintf(
				"tighten: window rank error %.2f > SLO %.2f; k=%d batch=%d",
				s.RankErr, c.cfg.RankSLO, nk, nb)
			action = Tighten
		}
	case p99Breach || depthHigh:
		nk := min(c.k+c.cfg.KStep, c.cfg.MaxK)
		nb := min(c.batch+c.cfg.BatchStep, c.cfg.MaxBatch)
		if nk != c.k || nb != c.batch {
			cause := fmt.Sprintf("queue p99 %.0fms > SLO %.0fms", s.P99Ms, c.cfg.P99SLOMs)
			if !p99Breach {
				cause = fmt.Sprintf("queue depth %d/%d over high water", s.QueueDepth, s.QueueCap)
			}
			c.k, c.batch = nk, nb
			c.status.Widened++
			c.status.LastAdjustment = fmt.Sprintf(
				"widen: %s; k=%d batch=%d", cause, nk, nb)
			action = Widen
		}
	}
	c.status.K, c.status.Batch = c.k, c.batch
	return Decision{K: c.k, Batch: c.batch, Action: action}
}

// Status returns a snapshot of the controller's counters and current
// targets.
func (c *Controller) Status() Status { return c.status }
