package api

import "time"

// JobState is the lifecycle state of a submitted job.
type JobState string

const (
	// StateQueued means the job sits in a scheduler-backed pending queue.
	StateQueued JobState = "queued"
	// StateRunning means a worker is executing the job.
	StateRunning JobState = "running"
	// StateDone means the job finished and (if requested) verified.
	StateDone JobState = "done"
	// StateFailed means execution or verification returned an error.
	StateFailed JobState = "failed"
	// StateCanceled means the job was aborted by a forced shutdown before
	// it could finish.
	StateCanceled JobState = "canceled"
)

// JobSpec is a job submission: which workload to run, in which execution
// mode, on which (generated) graph, at which queue priority. The field set
// deliberately mirrors cmd/relaxrun's flags — a job is one relaxrun
// invocation made resident.
type JobSpec struct {
	// Workload is a registry name (mis, coloring, matching, sssp, kcore,
	// pagerank).
	Workload string `json:"workload"`
	// Mode is the execution mode: sequential, relaxed, concurrent, exact.
	Mode string `json:"mode"`
	// Graph describes the input graph; it is also the graph-cache key and
	// the gateway's consistent-hash routing key.
	Graph GraphSpec `json:"graph"`
	// Priority is the job's queue priority; lower values are scheduled
	// sooner, exactly like a task priority in internal/sched.
	Priority uint32 `json:"priority"`
	// K is the relaxation factor for mode "relaxed" (default 16).
	K int `json:"k,omitempty"`
	// Threads is the worker count for modes "concurrent"/"exact" (default
	// 2).
	Threads int `json:"threads,omitempty"`
	// Batch is the executor batch size (0 = executor default).
	Batch int `json:"batch,omitempty"`
	// Seed drives the job's derived inputs (permutations, weights) and
	// relaxed schedulers.
	Seed uint64 `json:"seed,omitempty"`
	// Delta is the sssp Δ-stepping bucket width (0 or 1 = exact distances).
	Delta uint32 `json:"delta,omitempty"`
	// Damping is the pagerank damping factor (0 selects 0.85).
	Damping float64 `json:"damping,omitempty"`
	// Tolerance is the pagerank target L1 error (0 selects 1e-9).
	Tolerance float64 `json:"tolerance,omitempty"`
	// Source is the sssp source vertex (-1 = first non-isolated vertex).
	Source int `json:"source"`
	// Verify asks the worker to check the output against the workload's
	// exactness oracle after execution (the default for submissions).
	Verify bool `json:"verify"`
}

// DefaultJobSpec returns the spec template HTTP submissions are decoded
// over, making the documented defaults explicit.
func DefaultJobSpec() JobSpec {
	return JobSpec{
		Mode:    "sequential",
		K:       16,
		Threads: 2,
		Source:  -1,
		Verify:  true,
	}
}

// JobResult is the outcome of a finished job.
type JobResult struct {
	// Summary is the workload's one-line output account ("MIS size: 123").
	Summary string `json:"summary"`
	// Verified reports whether the output passed the workload's exactness
	// oracle (false when the submission asked not to verify).
	Verified bool `json:"verified"`
	// Pops, StalePops and Wasted are the execution's work accounting (see
	// workload.Cost); WastedWorkLabel names what Wasted counts.
	Pops            int64  `json:"pops"`
	StalePops       int64  `json:"stale_pops"`
	Wasted          int64  `json:"wasted"`
	WastedWorkLabel string `json:"wasted_work_label"`
	// ExecNanos is the wall-clock execution time (excluding queueing and
	// graph build/cache lookup).
	ExecNanos int64 `json:"exec_ns"`
	// GraphCacheHit reports whether the input graph came from the cache.
	GraphCacheHit bool `json:"graph_cache_hit"`
	// Steals, GlobalFallbacks and EmptyPolls are the concurrent scheduler's
	// contention accounting for this job (zero outside mode "concurrent"):
	// pops served from another worker's lane, pops that fell through to a
	// global scan, and polls that found every probed lane empty.
	Steals          int64 `json:"steals,omitempty"`
	GlobalFallbacks int64 `json:"global_fallbacks,omitempty"`
	EmptyPolls      int64 `json:"empty_polls,omitempty"`
}

// JobStatus is the externally visible state of a job, returned by the
// submit and status endpoints. Behind a gateway the ID carries the owning
// backend in its low bits; clients must treat it as opaque.
type JobStatus struct {
	ID    int64    `json:"id"`
	State JobState `json:"state"`
	Spec  JobSpec  `json:"spec"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`
	// Result is set for done jobs.
	Result *JobResult `json:"result,omitempty"`
	// QueueRank is the rank (1 = true minimum) this job had among all
	// pending jobs when the scheduler dispensed it — its observed
	// scheduling rank error is QueueRank-1. Zero while still queued.
	QueueRank int `json:"queue_rank,omitempty"`
	// QueueNanos is the time the job spent queued before dispatch.
	QueueNanos int64 `json:"queue_ns,omitempty"`
	// SubmittedAt is the submission wall-clock time.
	SubmittedAt time.Time `json:"submitted_at"`
	// Recovered reports that this job was replayed from the write-ahead
	// log after a restart rather than submitted to this process. A
	// recovered job that finishes has no Result from before the crash.
	Recovered bool `json:"recovered,omitempty"`
}

// WorkloadInfo is one row of the workload-listing endpoint, taken straight
// from the registry descriptor.
type WorkloadInfo struct {
	Name       string `json:"name"`
	Kind       string `json:"kind"`
	Brief      string `json:"brief"`
	Input      string `json:"input"`
	WastedWork string `json:"wasted_work"`
}

// LatencySummary summarizes a latency distribution in milliseconds,
// derived from the matching LatencyHistogram by metricsexport.Summarize.
// Count, mean and max are exact over the service lifetime; the
// percentiles are interpolated inside their histogram bucket and clamped
// to the max. A gateway derives them from the merged cluster histogram,
// so cluster percentiles are percentiles of every backend's jobs together.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// LatencyHistogram is a latency distribution with logarithmic
// (power-of-two) buckets, the wire form behind the Prometheus histogram
// exposition and the source of every LatencySummary. Its counts are exact
// and unwindowed, so two scrapes subtract into the distribution of any
// interval, and cluster aggregation is a lossless bucket-wise sum.
type LatencyHistogram struct {
	// BoundsMs are the inclusive upper bucket bounds in milliseconds,
	// strictly increasing. Every node of one release emits the same
	// bounds, which is what lets the gateway merge bucket-wise.
	BoundsMs []float64 `json:"bounds_ms"`
	// Counts has len(BoundsMs)+1 entries: Counts[i] is the number of
	// observations in (BoundsMs[i-1], BoundsMs[i]]; the final entry is the
	// +Inf overflow bucket.
	Counts []int64 `json:"counts"`
	// SumMs is the sum of all observations in milliseconds.
	SumMs float64 `json:"sum_ms"`
	// MaxMs is the largest observation in milliseconds (a cluster merge
	// keeps the largest of the backends').
	MaxMs float64 `json:"max_ms"`
}

// TraceSpan is one phase of a job's recorded lifecycle. Offsets are
// nanoseconds since the owning trace's StartedAt, measured on the
// recording process's monotonic clock. EndNanos is zero while the phase
// is still running; terminal marker spans have EndNanos == StartNanos. In
// a gateway-composed trace the gateway's own hop span is rebased against
// the backend's clock and may start at a negative offset.
type TraceSpan struct {
	Name       string `json:"name"`
	StartNanos int64  `json:"start_ns"`
	EndNanos   int64  `json:"end_ns,omitempty"`
	// Detail carries phase-specific context: the rank error observed at
	// dispatch, the failure message, the backend a gateway routed to.
	Detail string `json:"detail,omitempty"`
}

// JobTrace is the GET /v1/jobs/{id}/trace payload: one job's span
// timeline (accepted → wal-synced → queued → dispatched →
// graph-build/cache-hit → executing → terminal). Through a gateway the
// spans additionally start with the gateway's own submit hop, and the
// TraceID is the one minted at first touch and propagated via
// X-Relax-Trace-Id — the same ID on the job's log lines fleet-wide.
// Traces live in a bounded ring; old jobs eventually answer 404.
type JobTrace struct {
	ID      int64  `json:"id"`
	TraceID string `json:"trace_id"`
	// StartedAt anchors offset zero in wall-clock time (the recording
	// node's acceptance time).
	StartedAt time.Time   `json:"started_at"`
	Spans     []TraceSpan `json:"spans"`
}

// RankErrorStats summarizes observed per-job scheduling rank error — the
// number of pending jobs that were strictly better (lower priority value)
// than the one the queue dispensed, the paper's rank error measured at job
// granularity. An exact job scheduler reports all zeros. At the gateway
// the same statistic is measured against the cluster-wide pending set.
type RankErrorStats struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Max   int64   `json:"max"`
}

// JobCounts breaks the jobs a service has seen down by outcome. Queued
// and Running are instantaneous gauges; the rest are lifetime counters.
type JobCounts struct {
	Submitted int64 `json:"submitted"`
	Queued    int64 `json:"queued"`
	Running   int64 `json:"running"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	// Rejected counts submissions refused by admission control (queue full
	// or draining); they never became jobs.
	Rejected int64 `json:"rejected"`
}

// CacheStats is a snapshot of a graph cache's counters.
type CacheStats struct {
	// Entries and Capacity describe current occupancy.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// Hits counts lookups served by an existing entry — including waiters
	// that piggybacked on a build still in flight; Misses counts lookups
	// that had to initiate a CSR build themselves.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts entries displaced by the LRU bound.
	Evictions int64 `json:"evictions"`
}

// CostTotals accumulates the work accounting of every finished job.
type CostTotals struct {
	Pops      int64 `json:"pops"`
	StalePops int64 `json:"stale_pops"`
	// Wasted sums each workload's headline wasted-work metric (extra
	// iterations, stale pops, re-evaluations — see the registry's
	// WastedWork labels).
	Wasted int64 `json:"wasted"`
	// Steals, GlobalFallbacks and EmptyPolls sum the concurrent scheduler's
	// contention accounting (multiqueue.Stats) over every finished
	// concurrent-mode job.
	Steals          int64 `json:"steals"`
	GlobalFallbacks int64 `json:"global_fallbacks"`
	EmptyPolls      int64 `json:"empty_polls"`
}

// ControllerStats reports the adaptive relaxation controller's state
// (internal/control) when the node runs -jobsched auto; nodes on a static
// scheduler omit the section entirely. In a cluster aggregate the counters
// are sums, K and Batch are means across the reporting backends (rounded),
// and the SLO fields are zeroed unless every reporting backend agrees —
// the same convention as the "mixed" JobSched label.
type ControllerStats struct {
	// Enabled reports that at least one controller contributed to this
	// snapshot.
	Enabled bool `json:"enabled"`
	// K is the job-queue relaxation currently in force; Batch is the
	// executor batch-size target in force.
	K     int `json:"k"`
	Batch int `json:"batch"`
	// RankSLO and P99SLOMs echo the operator's targets.
	RankSLO  float64 `json:"rank_slo"`
	P99SLOMs float64 `json:"p99_slo_ms"`
	// Steps counts control windows evaluated; Widened and Tightened count
	// the windows that moved a knob.
	Steps     int64 `json:"steps"`
	Widened   int64 `json:"widened"`
	Tightened int64 `json:"tightened"`
	// RankViolations and P99Violations count control windows whose sample
	// breached the respective SLO (even when the knobs were already pinned
	// at a bound).
	RankViolations int64 `json:"rank_violations"`
	P99Violations  int64 `json:"p99_violations"`
	// LastAdjustment describes the most recent widen or tighten (omitted
	// in cluster aggregates, where there is no single "last").
	LastAdjustment string `json:"last_adjustment,omitempty"`
}

// WALStats reports the write-ahead job log's counters when the node runs
// with -wal-dir; nodes without a log omit the section. In a cluster
// aggregate the counters are sums over the reporting backends and
// TornTail is true if any backend recovered past a torn tail.
type WALStats struct {
	// Appends counts records written (accepted jobs plus terminal marks);
	// Fsyncs counts file syncs issued — group commit keeps Fsyncs ≤
	// Appends, and the gap is the batching win.
	Appends int64 `json:"appends"`
	Fsyncs  int64 `json:"fsyncs"`
	// ReplayedJobs counts accepted-but-unfinished jobs re-enqueued from
	// the log at the last boot.
	ReplayedJobs int64 `json:"replayed_jobs"`
	// Segments is the current number of live log segments; Compacted
	// counts segments deleted since boot; Bytes counts bytes appended
	// since boot.
	Segments  int   `json:"segments"`
	Compacted int64 `json:"compacted"`
	Bytes     int64 `json:"bytes"`
	// TornTail reports that the last boot's replay stopped at a torn
	// record at the end of the log (expected after a crash mid-append;
	// the torn record was never acknowledged).
	TornTail bool `json:"torn_tail,omitempty"`
}

// Metrics is the GET /v1/metrics snapshot of one node. A gateway serves
// the same shape as the cluster aggregate (see ClusterMetrics).
type Metrics struct {
	// UptimeSeconds is the time since the manager (or gateway) started.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// JobSched and JobSchedK identify the scheduler the pending-job queue
	// runs on ("mixed" in a cluster aggregate of heterogeneous backends);
	// Workers and QueueCapacity are the pool size and admission bound
	// (cluster: sums).
	JobSched      string `json:"job_sched"`
	JobSchedK     int    `json:"job_sched_k"`
	Workers       int    `json:"workers"`
	QueueCapacity int    `json:"queue_capacity"`
	// Draining reports whether the service has stopped accepting jobs.
	Draining bool `json:"draining"`

	Jobs  JobCounts  `json:"jobs"`
	Cache CacheStats `json:"cache"`
	Cost  CostTotals `json:"cost"`
	// RankError is the job queue's observed relaxation. On a gateway this
	// is the *global* rank error: each job's rank among every job pending
	// anywhere in the cluster, measured at the coordination layer.
	RankError RankErrorStats `json:"rank_error"`
	// QueueLatency measures submit→dispatch; ExecLatency measures the
	// execution itself (excluding queueing and graph build). Both are
	// summaries of the histograms below over the service lifetime (cluster:
	// of the merged histograms).
	QueueLatency LatencySummary `json:"queue_latency"`
	ExecLatency  LatencySummary `json:"exec_latency"`
	// QueueLatencyHist and ExecLatencyHist are the same two distributions
	// as unwindowed log-bucketed histograms — exact counts over the service
	// lifetime, from which a percentile is derivable at any scrape window.
	// Present since the observability release; older nodes omit them.
	QueueLatencyHist *LatencyHistogram `json:"queue_latency_hist,omitempty"`
	ExecLatencyHist  *LatencyHistogram `json:"exec_latency_hist,omitempty"`
	// Controller is the adaptive relaxation controller's state, present
	// only under -jobsched auto (cluster: aggregated over the backends
	// that run one).
	Controller *ControllerStats `json:"controller,omitempty"`
	// WAL is the write-ahead job log's state, present only with -wal-dir
	// (cluster: aggregated over the backends that run one).
	WAL *WALStats `json:"wal,omitempty"`
}

// BackendMetrics is one backend's row in a gateway's cluster snapshot.
type BackendMetrics struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Error records why the backend's metrics could not be fetched.
	Error string `json:"error,omitempty"`
	// Metrics is the backend's own snapshot (nil when unreachable).
	Metrics *Metrics `json:"metrics,omitempty"`
}

// ClusterMetrics is the gateway's GET /v1/metrics payload: a cluster-wide
// aggregate in the exact wire shape of a single node's Metrics (so
// single-node clients keep working unchanged), plus the per-backend
// breakdown. The embedded RankError is the gateway-measured global rank
// error — the MultiQueue construction's quality metric lifted to cluster
// level, with per-node rank errors still visible under Backends.
type ClusterMetrics struct {
	Metrics
	// HealthyBackends counts backends whose last health check passed.
	HealthyBackends int `json:"healthy_backends"`
	// Backends lists every configured backend in routing order.
	Backends []BackendMetrics `json:"backends"`
}
