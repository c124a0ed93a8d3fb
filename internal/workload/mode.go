package workload

// This file is the shared CLI plumbing: edge-list loading, flag validation
// and execution-mode dispatch. cmd/relaxrun calls LoadGraph, ValidateFlags
// and Descriptor.RunMode and keeps only its flag definitions and output
// lines; relaxd's job service runs jobs through RunModeContext.

import (
	"context"
	"fmt"
	"os"
	"time"

	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/exactheap"
	"relaxsched/internal/sched/faaqueue"
	"relaxsched/internal/sched/multiqueue"
)

// Mode is a CLI execution mode.
type Mode int

const (
	// ModeSequential runs the optimized sequential baseline.
	ModeSequential Mode = iota + 1
	// ModeRelaxed runs the sequential-model relaxed scheduler (a MultiQueue
	// with a configurable relaxation factor).
	ModeRelaxed
	// ModeConcurrent runs worker goroutines over a concurrent MultiQueue.
	ModeConcurrent
	// ModeExact runs worker goroutines over an exact scheduler: the
	// fetch-and-add FIFO with the wait-on-predecessor policy for static
	// workloads, a coarse-locked exact heap for dynamic ones.
	ModeExact
)

// String returns the mode's CLI name.
func (m Mode) String() string {
	switch m {
	case ModeSequential:
		return "sequential"
	case ModeRelaxed:
		return "relaxed"
	case ModeConcurrent:
		return "concurrent"
	case ModeExact:
		return "exact"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode parses a CLI -mode value.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "sequential":
		return ModeSequential, nil
	case "relaxed":
		return ModeRelaxed, nil
	case "concurrent":
		return ModeConcurrent, nil
	case "exact":
		return ModeExact, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", name)
	}
}

// LoadGraph opens and parses an edge-list file (see cmd/graphgen for the
// format), with the error wording shared by every CLI.
func LoadGraph(path string) (*graph.Graph, error) {
	if path == "" {
		return nil, fmt.Errorf("-in is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening input: %w", err)
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		return nil, fmt.Errorf("parsing input: %w", err)
	}
	return g, nil
}

// ValidateFlags checks the scheduler knobs every workload CLI exposes.
func ValidateFlags(k, threads, batch int) error {
	if k < 1 {
		return fmt.Errorf("invalid relaxation factor %d: -k must be at least 1", k)
	}
	if threads < 1 {
		return fmt.Errorf("invalid worker count %d: -threads must be at least 1", threads)
	}
	if batch < 0 {
		return fmt.Errorf("invalid batch size %d: -batch must be non-negative (0 = executor default)", batch)
	}
	return nil
}

// schedSeedSalt decorrelates the scheduler's random stream from the
// workload's own seed consumers (priority permutations, edge weights):
// RunMode derives both from the single user-facing Params.Seed.
const schedSeedSalt = 0x5eed5a17ed5eed5a

// RunConfig configures Descriptor.RunMode.
type RunConfig struct {
	// Mode selects the execution mode.
	Mode Mode
	// K is the relaxation factor (MultiQueue sub-queues) for ModeRelaxed.
	K int
	// Threads is the worker count for ModeConcurrent and ModeExact.
	Threads int
	// Batch is the executor batch size (0 = executor default).
	Batch int
	// QueueFactor is the number of concurrent MultiQueue sub-queues per
	// thread (0 selects multiqueue.DefaultQueueFactor).
	QueueFactor int
	// Tunable, when non-nil, supplies the executor batch size dynamically
	// for ModeConcurrent and ModeExact (overriding Batch); other modes
	// ignore it. relaxd's adaptive controller shares one across the worker
	// pool so in-flight executions follow its batch decisions.
	Tunable *core.TunableOptions
}

// RunResult is the outcome of Descriptor.RunMode.
type RunResult struct {
	// Output is the execution's result.
	Output Output
	// Cost is the execution's work accounting (zero for ModeSequential).
	Cost Cost
	// Elapsed is the wall-clock time of the run itself, excluding instance
	// construction and verification.
	Elapsed time.Duration
	// Instance is the bound instance, for follow-up Verify calls.
	Instance Instance
}

// RunMode binds the workload to a graph and executes it in the given mode,
// building the mode-appropriate scheduler: sequential baseline, MultiQueue
// (sequential-model or concurrent), or the exact scheduler matching the
// workload's contract.
func (d *Descriptor) RunMode(g *graph.Graph, cfg RunConfig, p Params) (RunResult, error) {
	return d.RunModeContext(context.Background(), g, cfg, p)
}

// RunModeContext is RunMode with cancellation: when ctx is canceled, the
// call returns an error wrapping core.ErrCanceled and the partial state is
// discarded. How promptly a mode reacts differs:
//
//   - ModeConcurrent and ModeExact abort at the next batch boundary
//     (core's Cancel channel);
//   - ModeRelaxed winds down at the next scheduler pop (the scheduler is
//     wrapped to report empty once ctx is done);
//   - ModeSequential runs a plain algorithm loop on the caller's goroutine
//     — Go cannot preempt it, so it is checked only before the run starts
//     and a cancellation landing mid-run takes effect when it finishes.
//
// No mode holds goroutines a caller could orphan. relaxd uses this entry
// point to abort in-flight jobs on forced shutdown.
func (d *Descriptor) RunModeContext(ctx context.Context, g *graph.Graph, cfg RunConfig, p Params) (RunResult, error) {
	if cerr := ctx.Err(); cerr != nil {
		return RunResult{}, fmt.Errorf("workload: %w: %w", core.ErrCanceled, cerr)
	}
	if cfg.Batch < 0 {
		return RunResult{}, fmt.Errorf("invalid batch size %d: -batch must be non-negative (0 = executor default)", cfg.Batch)
	}
	inst, err := d.New(g, p)
	if err != nil {
		return RunResult{}, err
	}
	n := inst.NumTasks()
	qf := cfg.QueueFactor
	if qf <= 0 {
		qf = multiqueue.DefaultQueueFactor
	}

	res := RunResult{Instance: inst}
	start := time.Now()
	switch cfg.Mode {
	case ModeSequential:
		res.Output = inst.RunSequential()
	case ModeRelaxed:
		if cfg.K < 1 {
			return RunResult{}, fmt.Errorf("invalid relaxation factor %d: -k must be at least 1", cfg.K)
		}
		var s sched.Scheduler = multiqueue.NewSequential(cfg.K, n, rng.New(p.Seed^schedSeedSalt))
		if done := ctx.Done(); done != nil {
			s = cancelableScheduler{Scheduler: s, done: done}
		}
		res.Output, res.Cost, err = inst.RunRelaxed(s)
	case ModeConcurrent:
		if cfg.Threads < 1 {
			return RunResult{}, fmt.Errorf("invalid worker count %d: -threads must be at least 1", cfg.Threads)
		}
		mq := multiqueue.NewConcurrent(qf*cfg.Threads, n, p.Seed^schedSeedSalt)
		res.Output, res.Cost, err = inst.RunConcurrent(mq, ConcOptions{
			Workers:   cfg.Threads,
			BatchSize: cfg.Batch,
			Policy:    core.Reinsert,
			Cancel:    ctx.Done(),
			Tunable:   cfg.Tunable,
		})
		// Fold the MultiQueue's contention accounting into the uniform cost:
		// steals and global fallbacks exist only at the scheduler, not in the
		// executor's per-pop counters.
		mqs := mq.Stats()
		res.Cost.Steals = mqs.Steals
		res.Cost.GlobalFallbacks = mqs.GlobalFallbacks
	case ModeExact:
		if cfg.Threads < 1 {
			return RunResult{}, fmt.Errorf("invalid worker count %d: -threads must be at least 1", cfg.Threads)
		}
		var s sched.Concurrent
		policy := core.Reinsert
		if d.Kind == Static {
			// The paper's exact concurrent baseline: FIFO preloaded in
			// priority order plus the wait-on-predecessor backoff.
			s = faaqueue.New(n)
			policy = core.Wait
		} else {
			// Dynamic workloads re-insert with changed priorities, so the
			// exact baseline is a coarse-locked exact heap.
			s = sched.NewLocked(exactheap.New(n))
		}
		res.Output, res.Cost, err = inst.RunConcurrent(s, ConcOptions{
			Workers:   cfg.Threads,
			BatchSize: cfg.Batch,
			Policy:    policy,
			Cancel:    ctx.Done(),
			Tunable:   cfg.Tunable,
		})
	default:
		return RunResult{}, fmt.Errorf("unknown mode %q", cfg.Mode)
	}
	// A cancellation that landed mid-run dominates whatever the run itself
	// reported: a wound-down relaxed execution surfaces as ErrStuck (static)
	// or even a clean-but-partial result (dynamic), and all of it must be
	// discarded.
	if cerr := ctx.Err(); cerr != nil {
		return RunResult{}, fmt.Errorf("workload: %w: %w", core.ErrCanceled, cerr)
	}
	if err != nil {
		return RunResult{}, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// cancelableScheduler makes a sequential-model execution abortable: once
// the context's done channel closes, ApproxGetMin reports empty and the
// executor's run loop winds down at its next pop instead of draining the
// remaining items.
type cancelableScheduler struct {
	sched.Scheduler
	done <-chan struct{}
}

func (c cancelableScheduler) ApproxGetMin() (sched.Item, bool) {
	select {
	case <-c.done:
		return sched.Item{}, false
	default:
		return c.Scheduler.ApproxGetMin()
	}
}
