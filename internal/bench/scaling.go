package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"relaxsched/internal/core"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/faaqueue"
	"relaxsched/internal/sched/kbounded"
	"relaxsched/internal/sched/multiqueue"
	"relaxsched/internal/stats"
	"relaxsched/internal/workload"
)

// DefaultQueueFactor is the number of MultiQueue sub-queues per thread
// (4, as in the paper).
const DefaultQueueFactor = multiqueue.DefaultQueueFactor

// ScalingConfig configures RunScaling, the worker-scaling sweep behind
// BENCH_concurrent.json.
type ScalingConfig struct {
	Class Class
	// Algorithm is the registered workload to run (default "mis", the
	// workload of Figure 2).
	Algorithm string
	// Workers is the list of worker counts to sweep (default
	// DefaultThreadSweep).
	Workers []int
	// BatchSizes is the list of executor batch sizes to sweep (default: the
	// executor default, core.DefaultBatchSize).
	BatchSizes []int
	// Schedulers is the list of scheduler names to sweep (default
	// SchedulerRelaxed, SchedulerExact and SchedulerLockedKBounded).
	Schedulers []string
	// Trials per data point. Default 3.
	Trials int
	// QueueFactor is the number of MultiQueue sub-queues per thread
	// (default 4, as in the paper).
	QueueFactor int
	// Delta is the Δ-stepping bucket width for sssp (0 or 1 keep exact
	// distance priorities); other algorithms ignore it.
	Delta uint32
	// Tolerance is the target L1 error for pagerank (0 selects the workload
	// default 1e-9); other algorithms ignore it.
	Tolerance float64
	// Seed makes graph generation and permutations reproducible.
	Seed uint64
	// Verify makes every run check its output against the sequential
	// reference through the workload's Matches.
	Verify bool
}

func (c ScalingConfig) withDefaults() ScalingConfig {
	if c.Algorithm == "" {
		c.Algorithm = "mis"
	}
	if len(c.Workers) == 0 {
		c.Workers = DefaultThreadSweep()
	}
	if len(c.BatchSizes) == 0 {
		c.BatchSizes = []int{core.DefaultBatchSize}
	}
	if len(c.Schedulers) == 0 {
		c.Schedulers = []string{SchedulerRelaxed, SchedulerExact, SchedulerLockedKBounded}
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.QueueFactor <= 0 {
		c.QueueFactor = DefaultQueueFactor
	}
	return c
}

// params maps a sweep config onto the registry's workload parameters.
func (c ScalingConfig) params() workload.Params {
	return workload.Params{
		Seed:      c.Seed,
		Delta:     c.Delta,
		Tolerance: c.Tolerance,
		Source:    -1, // sssp: first non-isolated vertex
	}
}

// ScalingPoint is one (scheduler, workers, batch size) measurement.
type ScalingPoint struct {
	Scheduler string `json:"scheduler"`
	Workers   int    `json:"workers"`
	BatchSize int    `json:"batch_size"`
	// TimeMeanSeconds and TimeMinSeconds summarize wall-clock time across
	// trials.
	TimeMeanSeconds float64 `json:"time_mean_seconds"`
	TimeMinSeconds  float64 `json:"time_min_seconds"`
	// ThroughputTasksPerSec is tasks divided by mean wall-clock time — the
	// primary quantity the sweep tracks across PRs.
	ThroughputTasksPerSec float64 `json:"throughput_tasks_per_sec"`
	// Speedup is the sequential baseline's mean time over this point's mean.
	Speedup float64 `json:"speedup"`
	// ExtraIterationsMean counts the workload's wasted-work metric per trial.
	ExtraIterationsMean float64 `json:"extra_iterations_mean"`
	// EmptyPollsMean counts deliveries that found the scheduler empty.
	EmptyPollsMean float64 `json:"empty_polls_mean"`
}

// ScalingReport is the JSON-serializable outcome of one scaling sweep —
// the machine-readable perf trajectory written to BENCH_concurrent.json.
type ScalingReport struct {
	Class     string `json:"class"`
	Vertices  int    `json:"vertices"`
	Edges     int64  `json:"edges"`
	Model     string `json:"model,omitempty"`
	Algorithm string `json:"algorithm"`
	Tasks     int    `json:"tasks"`
	NumCPU    int    `json:"num_cpu"`
	Trials    int    `json:"trials"`
	Seed      uint64 `json:"seed"`
	// SequentialSeconds is the mean wall-clock time of the optimized
	// sequential baseline, the denominator of every Speedup.
	SequentialSeconds float64        `json:"sequential_seconds"`
	Points            []ScalingPoint `json:"points"`
}

// RunScaling executes the worker-scaling sweep: for one graph class and
// registered workload it measures throughput for every (scheduler, workers,
// batch size) combination against the sequential baseline.
func RunScaling(cfg ScalingConfig) (ScalingReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Class.Vertices <= 0 {
		return ScalingReport{}, fmt.Errorf("bench: class has no vertices")
	}
	inst, seqTime, reference, err := bind(cfg.Class, cfg.Algorithm, cfg.Trials, cfg.Seed, cfg.params())
	if err != nil {
		return ScalingReport{}, err
	}

	model := cfg.Class.Model
	if model == "" {
		model = ModelGNP
	}
	report := ScalingReport{
		Class:             cfg.Class.Name,
		Vertices:          cfg.Class.Vertices,
		Edges:             cfg.Class.Edges,
		Model:             model,
		Algorithm:         cfg.Algorithm,
		Tasks:             inst.NumTasks(),
		NumCPU:            runtime.NumCPU(),
		Trials:            cfg.Trials,
		Seed:              cfg.Seed,
		SequentialSeconds: seqTime.Mean,
	}

	for _, name := range cfg.Schedulers {
		variant, err := schedulerVariant(name, cfg.QueueFactor, cfg.Seed, inst.NumTasks())
		if err != nil {
			return ScalingReport{}, err
		}
		for _, workers := range cfg.Workers {
			if workers < 1 {
				return ScalingReport{}, fmt.Errorf("bench: invalid worker count %d", workers)
			}
			for _, batch := range cfg.BatchSizes {
				if batch < 1 {
					return ScalingReport{}, fmt.Errorf("bench: invalid batch size %d", batch)
				}
				pt, err := measure(inst, cfg, variant, workers, batch, reference)
				if err != nil {
					return ScalingReport{}, fmt.Errorf("bench: %s at %d workers batch %d: %w", name, workers, batch, err)
				}
				pt.Scheduler = name
				pt.Speedup = report.SequentialSeconds / pt.TimeMeanSeconds
				report.Points = append(report.Points, pt)
			}
		}
	}
	return report, nil
}

// measure times one (scheduler, workers, batch) point: cfg.Trials runs
// through the registry instance, each checked against the sequential
// reference when cfg.Verify is set.
func measure(inst workload.Instance, cfg ScalingConfig, v sweepVariant, workers, batch int, reference workload.Output) (ScalingPoint, error) {
	var times, extras, empties []float64
	for trial := 0; trial < cfg.Trials; trial++ {
		start := time.Now()
		out, cost, err := inst.RunConcurrent(v.factory(workers, trial), workload.ConcOptions{
			Workers:   workers,
			BatchSize: batch,
			Policy:    v.policy,
		})
		if err != nil {
			return ScalingPoint{}, err
		}
		times = append(times, time.Since(start).Seconds())
		extras = append(extras, float64(cost.Wasted))
		empties = append(empties, float64(cost.EmptyPolls))
		if cfg.Verify {
			if err := inst.Matches(reference, out); err != nil {
				return ScalingPoint{}, err
			}
		}
	}
	t := stats.Summarize(times)
	return ScalingPoint{
		Workers:               workers,
		BatchSize:             batch,
		TimeMeanSeconds:       t.Mean,
		TimeMinSeconds:        t.Min,
		ThroughputTasksPerSec: float64(inst.NumTasks()) / t.Mean,
		ExtraIterationsMean:   stats.Summarize(extras).Mean,
		EmptyPollsMean:        stats.Summarize(empties).Mean,
	}, nil
}

// sweepVariant maps a sweep scheduler name to its blocked-task policy
// (static workloads only) and per-(workers, trial) scheduler factory.
type sweepVariant struct {
	policy  core.Policy
	factory func(workers, trial int) sched.Concurrent
}

func schedulerVariant(name string, queueFactor int, seed uint64, numTasks int) (sweepVariant, error) {
	switch name {
	case SchedulerRelaxed:
		return sweepVariant{
			policy: core.Reinsert,
			factory: func(workers, trial int) sched.Concurrent {
				return multiqueue.NewConcurrent(queueFactor*workers, numTasks, seed+uint64(trial)*7919)
			},
		}, nil
	case SchedulerExact:
		return sweepVariant{
			policy:  core.Wait,
			factory: func(workers, trial int) sched.Concurrent { return faaqueue.New(numTasks) },
		}, nil
	case SchedulerLockedKBounded:
		return sweepVariant{
			policy: core.Reinsert,
			factory: func(workers, trial int) sched.Concurrent {
				return sched.NewLocked(kbounded.New(queueFactor*workers, numTasks))
			},
		}, nil
	default:
		return sweepVariant{}, fmt.Errorf("bench: unknown sweep scheduler %q", name)
	}
}

// WriteScalingReports writes several sweep reports (one per graph class) as
// a single indented JSON array — the layout of BENCH_concurrent.json.
func WriteScalingReports(w io.Writer, reports []ScalingReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}

// ReadScalingReports parses a JSON array of sweep reports as written by
// WriteScalingReports.
func ReadScalingReports(r io.Reader) ([]ScalingReport, error) {
	var reports []ScalingReport
	if err := json.NewDecoder(r).Decode(&reports); err != nil {
		return nil, fmt.Errorf("bench: parsing sweep reports: %w", err)
	}
	return reports, nil
}

// ReadScalingReportsFile reads a sweep-report JSON file.
func ReadScalingReportsFile(path string) ([]ScalingReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bench: opening sweep reports: %w", err)
	}
	defer f.Close()
	return ReadScalingReports(f)
}

// Format renders the sweep as an aligned text table.
func (rep ScalingReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scaling sweep: class=%s algo=%s |V|=%d |E|=%d tasks=%d cpus=%d seq=%.4fs\n",
		rep.Class, rep.Algorithm, rep.Vertices, rep.Edges, rep.Tasks, rep.NumCPU, rep.SequentialSeconds)
	fmt.Fprintf(&b, "%-20s %8s %6s %12s %14s %10s %12s\n",
		"scheduler", "workers", "batch", "time-mean(s)", "tasks/sec", "speedup", "extra-iters")
	sorted := append([]ScalingPoint(nil), rep.Points...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Scheduler != sorted[j].Scheduler {
			return sorted[i].Scheduler < sorted[j].Scheduler
		}
		if sorted[i].Workers != sorted[j].Workers {
			return sorted[i].Workers < sorted[j].Workers
		}
		return sorted[i].BatchSize < sorted[j].BatchSize
	})
	for _, pt := range sorted {
		fmt.Fprintf(&b, "%-20s %8d %6d %12.4f %14.0f %10.2f %12.1f\n",
			pt.Scheduler, pt.Workers, pt.BatchSize, pt.TimeMeanSeconds,
			pt.ThroughputTasksPerSec, pt.Speedup, pt.ExtraIterationsMean)
	}
	return b.String()
}

// Schedulers returns the distinct scheduler names present in the sweep, in
// first-appearance order.
func (rep ScalingReport) Schedulers() []string {
	var names []string
	seen := make(map[string]bool)
	for _, pt := range rep.Points {
		if !seen[pt.Scheduler] {
			seen[pt.Scheduler] = true
			names = append(names, pt.Scheduler)
		}
	}
	return names
}

// BestThroughput returns the highest throughput the given scheduler reached
// anywhere in the sweep (0 if absent).
func (rep ScalingReport) BestThroughput(scheduler string) float64 {
	best := 0.0
	for _, pt := range rep.Points {
		if pt.Scheduler == scheduler && pt.ThroughputTasksPerSec > best {
			best = pt.ThroughputTasksPerSec
		}
	}
	return best
}
