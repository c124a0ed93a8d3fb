package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"relaxsched/internal/api"
	"relaxsched/internal/stats"
)

// LoadConfig configures RunLoad, the closed-loop load generator behind
// cmd/relaxload and the service smoke tests: Clients goroutines each
// submit a job, poll until it finishes, and immediately submit the next —
// the classic closed-loop model, so offered load adapts to service
// capacity instead of overrunning it. The target may be a single relaxd
// node or a relaxgw gateway; the wire API is identical.
type LoadConfig struct {
	// BaseURL is the service root, e.g. "http://localhost:8080".
	BaseURL string
	// Clients is the number of concurrent closed-loop clients (default 4).
	Clients int
	// Jobs is the total number of jobs to push through (default 32).
	Jobs int
	// Workloads is the job mix, cycled per job (default all six registry
	// workloads).
	Workloads []string
	// Mode is the execution mode every job runs in (default concurrent).
	Mode string
	// Threads is the per-job worker count for modes concurrent/exact
	// (default 2).
	Threads int
	// Graph is the input every job asks for; one spec means the graph
	// cache should serve every job after the first from memory (and, via
	// a gateway, that every job lands on the one backend owning the key).
	Graph api.GraphSpec
	// GraphSeeds > 1 cycles job i's generator seed over [Graph.Seed,
	// Graph.Seed+GraphSeeds), spreading the run across that many distinct
	// graph keys — through a gateway, across that many ring positions —
	// while each seed still repeats often enough to exercise the caches
	// (default 1: every job shares one graph).
	GraphSeeds int
	// PrioritySpread makes job i carry priority (i*7919)%PrioritySpread,
	// giving the job queue a non-trivial priority distribution to relax
	// against (default 100; 1 makes every job equal-priority).
	PrioritySpread int
	// PollInterval is the status-poll period (default 2ms).
	PollInterval time.Duration
	// Verify asks each job to run its exactness oracle (default true —
	// set by callers; the zero value disables verification).
	Verify bool
	// HTTPClient overrides the typed client's underlying *http.Client
	// (default: the api package's shared timed client).
	HTTPClient *http.Client
	// Progress, when non-nil with a positive ProgressInterval, receives a
	// one-line rolling summary every interval: submit attempts, accepted
	// jobs, terminal jobs, admission rejections, and the current
	// client-observed p99 latency.
	Progress io.Writer
	// ProgressInterval is the period of the progress line (0 disables).
	ProgressInterval time.Duration
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.Jobs == 0 {
		c.Jobs = 32
	}
	if len(c.Workloads) == 0 {
		for _, info := range Workloads() {
			c.Workloads = append(c.Workloads, info.Name)
		}
	}
	if c.Mode == "" {
		c.Mode = "concurrent"
	}
	if c.Threads == 0 {
		c.Threads = 2
	}
	if c.Graph.N == 0 {
		c.Graph = api.GraphSpec{Model: api.ModelGNP, N: 2000, Edges: 8000, Seed: 1}
	}
	if c.PrioritySpread == 0 {
		c.PrioritySpread = 100
	}
	if c.GraphSeeds == 0 {
		c.GraphSeeds = 1
	}
	if c.PollInterval == 0 {
		c.PollInterval = 2 * time.Millisecond
	}
	return c
}

// client builds the typed API client the whole run shares — one
// http.Client (with timeouts) under every closed-loop goroutine.
func (c LoadConfig) client() *api.Client {
	cli := api.NewClient(strings.TrimRight(c.BaseURL, "/"))
	if c.HTTPClient != nil {
		cli.HTTP = c.HTTPClient
	}
	return cli
}

// LoadResult is the outcome of one load run.
type LoadResult struct {
	// Jobs counts completed jobs; Failed counts jobs that ended failed or
	// canceled; Rejected counts 429/503 submission rejections (retried).
	Jobs     int
	Failed   int
	Rejected int
	// Unfinished counts jobs the service accepted (a 202 was observed)
	// that this run never saw reach a terminal state — because the run
	// errored out mid-poll or the server went away. Non-zero Unfinished
	// means the summary's Jobs/Failed split does not account for every
	// accepted job; crash harnesses reconcile these ids after a restart.
	Unfinished int
	// Accepted lists every job id the service acknowledged, in acceptance
	// order per client; Terminal maps the subset this run observed
	// reaching a terminal state to that state.
	Accepted []int64
	Terminal map[int64]api.JobState
	// Elapsed is the wall-clock span of the whole run.
	Elapsed time.Duration
	// Throughput is Jobs / Elapsed, in jobs per second.
	Throughput float64
	// Latency summarizes the client-observed submit→done latency in
	// seconds.
	Latency stats.Summary
	// Metrics is the service's /v1/metrics snapshot taken after the run,
	// carrying the server-side view: rank error, queue latency, cache
	// hit rate. Against a gateway this is the cluster-wide aggregate
	// (global rank error, summed cache counters).
	Metrics api.Metrics
}

// Format renders the result as the relaxload report.
func (r LoadResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "jobs: %d done, %d failed, %d rejected in %v (%.1f jobs/s)\n",
		r.Jobs, r.Failed, r.Rejected, r.Elapsed.Round(time.Millisecond), r.Throughput)
	if r.Unfinished > 0 {
		fmt.Fprintf(&b, "WARNING: %d accepted jobs never reached a terminal state during this run\n",
			r.Unfinished)
	}
	fmt.Fprintf(&b, "client latency (ms): mean=%.2f p50=%.2f p95=%.2f max=%.2f\n",
		r.Latency.Mean*1e3, r.Latency.P50*1e3, r.Latency.P95*1e3, r.Latency.Max*1e3)
	m := r.Metrics
	fmt.Fprintf(&b, "server queue  (ms): mean=%.2f p50=%.2f p99=%.2f max=%.2f\n",
		m.QueueLatency.MeanMs, m.QueueLatency.P50Ms, m.QueueLatency.P99Ms, m.QueueLatency.MaxMs)
	fmt.Fprintf(&b, "job sched: %s (k=%d)  rank error: mean=%.2f max=%d over %d dispatches\n",
		m.JobSched, m.JobSchedK, m.RankError.Mean, m.RankError.Max, m.RankError.Count)
	if c := m.Controller; c != nil && c.Enabled {
		fmt.Fprintf(&b, "controller: k=%d batch=%d  %d widened / %d tightened over %d steps  violations: rank=%d p99=%d\n",
			c.K, c.Batch, c.Widened, c.Tightened, c.Steps, c.RankViolations, c.P99Violations)
	}
	fmt.Fprintf(&b, "graph cache: %d/%d entries, %d hits, %d misses, %d evictions\n",
		m.Cache.Entries, m.Cache.Capacity, m.Cache.Hits, m.Cache.Misses, m.Cache.Evictions)
	fmt.Fprintf(&b, "wasted work: %d (of %d pops, %d stale)\n",
		m.Cost.Wasted, m.Cost.Pops, m.Cost.StalePops)
	return b.String()
}

// RunLoad drives the service at cfg.BaseURL with a closed-loop client fleet
// until cfg.Jobs jobs completed (done, failed or canceled). Submission
// rejections (queue full, draining) are counted and retried — closed-loop
// clients back off rather than drop work, honoring the server's
// retry_after_ms hint when the envelope carries one.
func RunLoad(ctx context.Context, cfg LoadConfig) (LoadResult, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" {
		return LoadResult{}, fmt.Errorf("loadgen: BaseURL is required")
	}
	cli := cfg.client()

	var (
		mu        sync.Mutex
		latencies []float64
		res       LoadResult
		firstErr  error
		counters  loadCounters
	)
	next := make(chan int, cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		next <- i
	}
	close(next)

	res.Terminal = make(map[int64]api.JobState)
	start := time.Now()

	if cfg.Progress != nil && cfg.ProgressInterval > 0 {
		stopProgress := make(chan struct{})
		progressDone := make(chan struct{})
		// The goroutine is joined, not just signaled: the caller may write
		// its report to the same writer the moment RunLoad returns.
		defer func() {
			close(stopProgress)
			<-progressDone
		}()
		go func() {
			defer close(progressDone)
			t := time.NewTicker(cfg.ProgressInterval)
			defer t.Stop()
			for {
				select {
				case <-stopProgress:
					return
				case <-t.C:
					mu.Lock()
					sample := append([]float64(nil), latencies...)
					mu.Unlock()
					p99 := 0.0
					if len(sample) > 0 {
						p99, _ = stats.Percentile(sample, 99)
					}
					fmt.Fprintf(cfg.Progress,
						"progress: submitted=%d accepted=%d terminal=%d rejected=%d p99=%.1fms\n",
						counters.submitted.Load(), counters.accepted.Load(),
						counters.terminal.Load(), counters.rejected.Load(), p99*1e3)
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				id, lat, state, rejected, err := runOneJob(ctx, cli, cfg, i, &counters)
				mu.Lock()
				res.Rejected += rejected
				if id != 0 {
					// Accepted is recorded before the error check: a job
					// whose acceptance was observed but whose poll then
					// failed is exactly what Unfinished must count.
					res.Accepted = append(res.Accepted, id)
				}
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				res.Jobs++
				if state != api.StateDone {
					res.Failed++
				}
				res.Terminal[id] = state
				latencies = append(latencies, lat.Seconds())
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Unfinished = len(res.Accepted) - len(res.Terminal)
	if firstErr != nil {
		return res, firstErr
	}
	if res.Elapsed > 0 {
		res.Throughput = float64(res.Jobs) / res.Elapsed.Seconds()
	}
	res.Latency = stats.Summarize(latencies)
	// The server-side snapshot is half the report; an all-zero Metrics from
	// a swallowed fetch error would be indistinguishable from a real
	// measurement, so the failure is surfaced.
	m, err := cli.Metrics(ctx)
	if err != nil {
		return res, fmt.Errorf("loadgen: fetching final metrics: %w", err)
	}
	res.Metrics = m
	return res, nil
}

// loadCounters are the live counts behind the rolling progress line,
// updated by every closed-loop client as it goes.
type loadCounters struct {
	submitted atomic.Int64 // submit attempts, including rejected retries
	accepted  atomic.Int64 // jobs the service acknowledged with a 202
	terminal  atomic.Int64 // jobs observed reaching done/failed/canceled
	rejected  atomic.Int64 // queue-full and draining rejections
}

// runOneJob submits job i (retrying admission rejections with the
// server-suggested backoff) and polls it to completion, returning the
// accepted job id (0 if acceptance was never observed), the
// client-observed latency and the final state. The id is returned even
// when the poll errors out, so the caller can account for accepted jobs
// whose fate this run never saw.
func runOneJob(ctx context.Context, cli *api.Client, cfg LoadConfig, i int, counters *loadCounters) (int64, time.Duration, api.JobState, int, error) {
	spec := api.DefaultJobSpec()
	spec.Workload = cfg.Workloads[i%len(cfg.Workloads)]
	spec.Mode = cfg.Mode
	spec.Threads = cfg.Threads
	spec.Graph = cfg.Graph
	spec.Graph.Seed = cfg.Graph.Seed + uint64(i%cfg.GraphSeeds)
	spec.Priority = uint32((i * 7919) % cfg.PrioritySpread)
	spec.Seed = uint64(i + 1)
	spec.Verify = cfg.Verify

	rejected := 0
	start := time.Now()
	var id int64
	for {
		if err := ctx.Err(); err != nil {
			return 0, 0, "", rejected, err
		}
		counters.submitted.Add(1)
		st, err := cli.Submit(ctx, spec)
		if err != nil {
			if api.IsCode(err, api.CodeQueueFull) || api.IsCode(err, api.CodeDraining) {
				rejected++
				counters.rejected.Add(1)
				wait := cfg.PollInterval
				var e *api.Error
				if errors.As(err, &e) && e.RetryAfterMS > 0 {
					wait = time.Duration(e.RetryAfterMS) * time.Millisecond
				}
				select {
				case <-ctx.Done():
					return 0, 0, "", rejected, ctx.Err()
				case <-time.After(wait):
				}
				continue
			}
			return 0, 0, "", rejected, fmt.Errorf("loadgen: submit: %w", err)
		}
		id = st.ID
		counters.accepted.Add(1)
		break
	}

	for {
		select {
		case <-ctx.Done():
			return id, 0, "", rejected, ctx.Err()
		case <-time.After(cfg.PollInterval):
		}
		st, err := cli.Status(ctx, id)
		if err != nil {
			return id, 0, "", rejected, fmt.Errorf("loadgen: status: %w", err)
		}
		switch st.State {
		case api.StateDone, api.StateFailed, api.StateCanceled:
			counters.terminal.Add(1)
			return id, time.Since(start), st.State, rejected, nil
		}
	}
}
