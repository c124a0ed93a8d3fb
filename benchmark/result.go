package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// benchThreads is the worker count of every concurrent execution.
func benchThreads() int { return min(runtime.NumCPU(), 4) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// runResult is everything one run of one workload measured. Values holds
// the metrics the workload really measured, by contract name; a metric
// missing from Values was not exercised by this workload.
type runResult struct {
	Workload  string
	Seed      uint64
	Traced    bool
	Attempted int
	Failed    int
	// OpsPerS is the workload's own throughput — checked executions or
	// jobs per second of measured time — used by contractMetrics.
	OpsPerS  float64
	Values   map[string]float64
	Dists    map[string]summary
	Phases   map[string]float64
	Notes    map[string]any
	Failures []string

	spans []span
}

func newRunResult(workload string, seed uint64, traced bool) *runResult {
	return &runResult{
		Workload: workload, Seed: seed, Traced: traced,
		Values: map[string]float64{}, Dists: map[string]summary{},
		Phases: map[string]float64{}, Notes: map[string]any{},
	}
}

func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailuresShown {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// count books one job as an attempted operation and, if it failed, as a
// failed one.
func (r *runResult) count(rec jobRecord) {
	r.Attempted++
	if rec.Err != "" {
		r.fail("job %d: %s", rec.ID, rec.Err)
	}
}

// setDist records a timing metric as the median of its samples, keeping
// the quartiles and the sample count beside it.
func (r *runResult) setDist(name string, samples []float64) {
	if len(samples) == 0 {
		return
	}
	r.Dists[name] = summarize(samples)
	r.Values[name] = r.Dists[name].Median
}

// processSnapshot is the process-wide accounting read before and after
// the measured phase.
type processSnapshot struct {
	cpu     time.Duration
	gcPause time.Duration
	mallocs uint64
}

func readProcess() processSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // only fails on a bad argument
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return processSnapshot{cpu: tv(ru.Utime) + tv(ru.Stime), gcPause: time.Duration(ms.PauseTotalNs), mallocs: ms.Mallocs}
}

// peakRSSMB is the process's high-water resident set. Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

func (r *runResult) setProcess(before, after processSnapshot, ops int) {
	r.Values["process.peak_rss_mb"] = peakRSSMB()
	r.Values["process.cpu_s"] = (after.cpu - before.cpu).Seconds()
	r.Values["process.gc_pause_ms"] = float64(after.gcPause-before.gcPause) / float64(time.Millisecond)
	if ops > 0 {
		r.Values["process.allocs_per_op"] = float64(after.mallocs-before.mallocs) / float64(ops)
	}
}

// metricValue is one metric in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractMetrics renders a run for the driver, which requires every
// metric of the list on every run. A per-layer metric the workload does
// not exercise is 0. An end-to-end metric it does not exercise cannot be
// 0, so it is filled with the workload's own cost per operation — one
// over its throughput, in the metric's unit — or, for jobs_per_s, the
// throughput itself: a real measurement of this workload that moves only
// when the workload does. README.md lists which metrics each workload
// measures natively.
func contractMetrics(r *runResult, defs []metricDef, endToEnd bool) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.Values[d.Name]
		if !ok && endToEnd && r.OpsPerS > 0 {
			switch {
			case d.Better == "higher":
				v = r.OpsPerS
			case d.Unit == "ms":
				v = 1e3 / r.OpsPerS
			default:
				v = 1 / r.OpsPerS
			}
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// record is the full account of one run, written as one JSON line to the
// -out file. It ends with "claim": null — the benchmark measures; it
// claims nothing.
type record struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Traced     bool               `json:"traced"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	Threads    int                `json:"threads"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	PhasesS    map[string]float64 `json:"phases_s"`
	Metrics    map[string]float64 `json:"metrics"`
	Dists      map[string]summary `json:"distributions"`
	Notes      map[string]any     `json:"notes,omitempty"`
	Scaling    string             `json:"multi_core_scaling"`
	Claim      *string            `json:"claim"`
}

func commitID() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func (r *runResult) record() record {
	return record{
		Workload: r.Workload, Seed: r.Seed, Traced: r.Traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commitID(), Threads: benchThreads(),
		Attempted: r.Attempted, Failed: r.Failed, Failures: r.Failures,
		PhasesS: r.Phases, Metrics: r.Values, Dists: r.Dists, Notes: r.Notes,
		Scaling: "unmeasured",
	}
}
