// Package metricsexport turns the service's JSON metrics snapshots into
// Prometheus text exposition, dependency-free: the live log-bucketed
// latency Histogram and its api.LatencyHistogram wire form, the
// /v1/metrics/prom renderers for a single node (Render) and a gateway's
// per-backend cluster view (RenderCluster), a Lint checker the tests and
// CI smoke share to reject malformed exposition, and the -debug-addr
// pprof/expvar handler (DebugHandler).
//
// Naming follows the Prometheus conventions: every family is prefixed
// relax_ (gateway-level families relax_gateway_), counters end in _total,
// durations are in seconds, and each family carries HELP and TYPE lines.
// A gateway scrape renders node families once per reachable backend with
// a backend="<url>" label and no unlabeled aggregate, so a sum() over
// backends never double-counts.
package metricsexport

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"

	"relaxsched/internal/api"
)

// ContentType is the Content-Type header value of the Prometheus text
// exposition format the renderers emit.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// numFamily is one numeric metric family: how it is declared and where
// its value sits in a node's Metrics snapshot. get returns ok=false when
// the node does not expose the section (no controller, no WAL), which
// drops the sample — and, if no node has one, the family.
type numFamily struct {
	name string
	typ  string // "gauge" or "counter"
	help string
	get  func(m *api.Metrics) (float64, bool)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ctrl lifts a controller-section field, absent without -jobsched auto.
func ctrl(f func(c *api.ControllerStats) float64) func(*api.Metrics) (float64, bool) {
	return func(m *api.Metrics) (float64, bool) {
		if m.Controller == nil {
			return 0, false
		}
		return f(m.Controller), true
	}
}

// wal lifts a WAL-section field, absent without -wal-dir.
func wal(f func(w *api.WALStats) float64) func(*api.Metrics) (float64, bool) {
	return func(m *api.Metrics) (float64, bool) {
		if m.WAL == nil {
			return 0, false
		}
		return f(m.WAL), true
	}
}

func always(f func(m *api.Metrics) float64) func(*api.Metrics) (float64, bool) {
	return func(m *api.Metrics) (float64, bool) { return f(m), true }
}

// nodeFamilies is every numeric family a node snapshot exposes, in
// exposition order.
var nodeFamilies = []numFamily{
	{"relax_uptime_seconds", "gauge", "Time since the service started.",
		always(func(m *api.Metrics) float64 { return m.UptimeSeconds })},
	{"relax_workers", "gauge", "Size of the job worker pool.",
		always(func(m *api.Metrics) float64 { return float64(m.Workers) })},
	{"relax_queue_capacity", "gauge", "Admission bound of the pending-job queue.",
		always(func(m *api.Metrics) float64 { return float64(m.QueueCapacity) })},
	{"relax_job_sched_k", "gauge", "Relaxation factor of the pending-job scheduler (0 when not k-bounded).",
		always(func(m *api.Metrics) float64 { return float64(m.JobSchedK) })},
	{"relax_draining", "gauge", "1 when the service has stopped admitting jobs.",
		always(func(m *api.Metrics) float64 { return b2f(m.Draining) })},
	{"relax_jobs_queued", "gauge", "Jobs currently pending dispatch.",
		always(func(m *api.Metrics) float64 { return float64(m.Jobs.Queued) })},
	{"relax_jobs_running", "gauge", "Jobs currently executing.",
		always(func(m *api.Metrics) float64 { return float64(m.Jobs.Running) })},
	{"relax_jobs_submitted_total", "counter", "Jobs accepted by admission control.",
		always(func(m *api.Metrics) float64 { return float64(m.Jobs.Submitted) })},
	{"relax_jobs_done_total", "counter", "Jobs finished successfully.",
		always(func(m *api.Metrics) float64 { return float64(m.Jobs.Done) })},
	{"relax_jobs_failed_total", "counter", "Jobs whose execution or verification failed.",
		always(func(m *api.Metrics) float64 { return float64(m.Jobs.Failed) })},
	{"relax_jobs_canceled_total", "counter", "Jobs aborted by a forced shutdown.",
		always(func(m *api.Metrics) float64 { return float64(m.Jobs.Canceled) })},
	{"relax_jobs_rejected_total", "counter", "Submissions refused by admission control (queue full or draining).",
		always(func(m *api.Metrics) float64 { return float64(m.Jobs.Rejected) })},
	{"relax_cache_entries", "gauge", "Graphs currently resident in the graph cache.",
		always(func(m *api.Metrics) float64 { return float64(m.Cache.Entries) })},
	{"relax_cache_capacity", "gauge", "Entry bound of the graph cache.",
		always(func(m *api.Metrics) float64 { return float64(m.Cache.Capacity) })},
	{"relax_cache_hits_total", "counter", "Graph-cache lookups served by an existing or in-flight entry.",
		always(func(m *api.Metrics) float64 { return float64(m.Cache.Hits) })},
	{"relax_cache_misses_total", "counter", "Graph-cache lookups that initiated a CSR build.",
		always(func(m *api.Metrics) float64 { return float64(m.Cache.Misses) })},
	{"relax_cache_evictions_total", "counter", "Graph-cache entries displaced by the LRU bound.",
		always(func(m *api.Metrics) float64 { return float64(m.Cache.Evictions) })},
	{"relax_sched_pops_total", "counter", "Scheduler pops across all finished jobs (workload work accounting).",
		always(func(m *api.Metrics) float64 { return float64(m.Cost.Pops) })},
	{"relax_sched_stale_pops_total", "counter", "Stale scheduler pops across all finished jobs.",
		always(func(m *api.Metrics) float64 { return float64(m.Cost.StalePops) })},
	{"relax_sched_wasted_total", "counter", "Wasted work units across all finished jobs (per-workload metric, see /v1/workloads).",
		always(func(m *api.Metrics) float64 { return float64(m.Cost.Wasted) })},
	{"relax_sched_steals_total", "counter", "Concurrent-scheduler pops served from another worker's lane.",
		always(func(m *api.Metrics) float64 { return float64(m.Cost.Steals) })},
	{"relax_sched_global_fallbacks_total", "counter", "Concurrent-scheduler pops that fell through to a global scan.",
		always(func(m *api.Metrics) float64 { return float64(m.Cost.GlobalFallbacks) })},
	{"relax_sched_empty_polls_total", "counter", "Concurrent-scheduler polls that found every probed lane empty.",
		always(func(m *api.Metrics) float64 { return float64(m.Cost.EmptyPolls) })},
	{"relax_rank_error_jobs_total", "counter", "Jobs whose dispatch rank error was measured.",
		always(func(m *api.Metrics) float64 { return float64(m.RankError.Count) })},
	{"relax_rank_error_mean", "gauge", "Mean per-dispatch scheduling rank error (0 = exact priority order).",
		always(func(m *api.Metrics) float64 { return m.RankError.Mean })},
	{"relax_rank_error_max", "gauge", "Maximum observed per-dispatch scheduling rank error.",
		always(func(m *api.Metrics) float64 { return float64(m.RankError.Max) })},
	{"relax_controller_enabled", "gauge", "1 when the adaptive relaxation controller (-jobsched auto) is active.",
		ctrl(func(c *api.ControllerStats) float64 { return b2f(c.Enabled) })},
	{"relax_controller_k", "gauge", "Job-queue relaxation currently in force by the controller.",
		ctrl(func(c *api.ControllerStats) float64 { return float64(c.K) })},
	{"relax_controller_batch", "gauge", "Executor batch-size target currently in force by the controller.",
		ctrl(func(c *api.ControllerStats) float64 { return float64(c.Batch) })},
	{"relax_controller_rank_slo", "gauge", "Operator mean-rank-error SLO target.",
		ctrl(func(c *api.ControllerStats) float64 { return c.RankSLO })},
	{"relax_controller_p99_slo_seconds", "gauge", "Operator queue-latency p99 SLO target.",
		ctrl(func(c *api.ControllerStats) float64 { return c.P99SLOMs / 1000 })},
	{"relax_controller_steps_total", "counter", "Control windows evaluated.",
		ctrl(func(c *api.ControllerStats) float64 { return float64(c.Steps) })},
	{"relax_controller_widened_total", "counter", "Control windows that widened a knob.",
		ctrl(func(c *api.ControllerStats) float64 { return float64(c.Widened) })},
	{"relax_controller_tightened_total", "counter", "Control windows that tightened a knob.",
		ctrl(func(c *api.ControllerStats) float64 { return float64(c.Tightened) })},
	{"relax_controller_rank_violations_total", "counter", "Control windows whose sample breached the rank SLO.",
		ctrl(func(c *api.ControllerStats) float64 { return float64(c.RankViolations) })},
	{"relax_controller_p99_violations_total", "counter", "Control windows whose sample breached the p99 SLO.",
		ctrl(func(c *api.ControllerStats) float64 { return float64(c.P99Violations) })},
	{"relax_wal_appends_total", "counter", "Write-ahead log records appended (acceptances plus terminal marks).",
		wal(func(w *api.WALStats) float64 { return float64(w.Appends) })},
	{"relax_wal_fsyncs_total", "counter", "Write-ahead log fsyncs issued (group commit keeps this under appends).",
		wal(func(w *api.WALStats) float64 { return float64(w.Fsyncs) })},
	{"relax_wal_replayed_jobs", "gauge", "Accepted-but-unfinished jobs re-enqueued from the log at the last boot.",
		wal(func(w *api.WALStats) float64 { return float64(w.ReplayedJobs) })},
	{"relax_wal_segments", "gauge", "Live write-ahead log segments.",
		wal(func(w *api.WALStats) float64 { return float64(w.Segments) })},
	{"relax_wal_compacted_total", "counter", "Write-ahead log segments deleted by compaction since boot.",
		wal(func(w *api.WALStats) float64 { return float64(w.Compacted) })},
	{"relax_wal_bytes_total", "counter", "Bytes appended to the write-ahead log since boot.",
		wal(func(w *api.WALStats) float64 { return float64(w.Bytes) })},
	{"relax_wal_torn_tail", "gauge", "1 when the last boot's replay stopped at a torn record.",
		wal(func(w *api.WALStats) float64 { return b2f(w.TornTail) })},
}

// histFamily is one histogram family and where its wire snapshot sits in
// a node's Metrics.
type histFamily struct {
	name string
	help string
	get  func(m *api.Metrics) *api.LatencyHistogram
}

var histFamilies = []histFamily{
	{"relax_queue_latency_seconds", "Submit-to-dispatch latency (log-bucketed, lifetime).",
		func(m *api.Metrics) *api.LatencyHistogram { return m.QueueLatencyHist }},
	{"relax_exec_latency_seconds", "Job execution latency (log-bucketed, lifetime).",
		func(m *api.Metrics) *api.LatencyHistogram { return m.ExecLatencyHist }},
}

// labeledMetrics is one node snapshot plus the label set its samples
// carry (empty on a node's own scrape, backend="url" at the gateway).
type labeledMetrics struct {
	labels string
	m      *api.Metrics
}

// Render produces a single node's /v1/metrics/prom body.
func Render(m *api.Metrics) []byte {
	w := &promWriter{}
	renderNodes(w, []labeledMetrics{{m: m}})
	return w.buf.Bytes()
}

// RenderCluster produces a gateway's /v1/metrics/prom body: the gateway's
// own families (uptime, drain state, backend health, the gateway-measured
// global rank error) unlabeled, then every node family once per reachable
// backend under a distinct backend="<url>" label. There is deliberately
// no unlabeled cluster aggregate of the node families — sum() or avg()
// over the backend label is the consumer's choice, and an aggregate
// alongside the labeled samples would double-count it.
func RenderCluster(cm *api.ClusterMetrics) []byte {
	w := &promWriter{}
	w.family("relax_gateway_uptime_seconds", "gauge", "Time since the gateway started.")
	w.sample("relax_gateway_uptime_seconds", "", cm.UptimeSeconds)
	w.family("relax_gateway_draining", "gauge", "1 when the gateway has stopped admitting jobs.")
	w.sample("relax_gateway_draining", "", b2f(cm.Draining))
	w.family("relax_gateway_backends", "gauge", "Configured backends.")
	w.sample("relax_gateway_backends", "", float64(len(cm.Backends)))
	w.family("relax_gateway_healthy_backends", "gauge", "Backends whose last health check passed.")
	w.sample("relax_gateway_healthy_backends", "", float64(cm.HealthyBackends))
	if len(cm.Backends) > 0 {
		w.family("relax_gateway_backend_up", "gauge", "1 when the labeled backend's last health check passed.")
		for _, b := range cm.Backends {
			w.sample("relax_gateway_backend_up", backendLabel(b.URL), b2f(b.Healthy))
		}
	}
	w.family("relax_gateway_rank_error_jobs_total", "counter", "Jobs whose cluster-global dispatch rank error was measured at the gateway.")
	w.sample("relax_gateway_rank_error_jobs_total", "", float64(cm.RankError.Count))
	w.family("relax_gateway_rank_error_mean", "gauge", "Mean cluster-global scheduling rank error measured at the gateway.")
	w.sample("relax_gateway_rank_error_mean", "", cm.RankError.Mean)
	w.family("relax_gateway_rank_error_max", "gauge", "Maximum cluster-global scheduling rank error measured at the gateway.")
	w.sample("relax_gateway_rank_error_max", "", float64(cm.RankError.Max))

	nodes := make([]labeledMetrics, 0, len(cm.Backends))
	for _, b := range cm.Backends {
		if b.Metrics != nil {
			nodes = append(nodes, labeledMetrics{labels: backendLabel(b.URL), m: b.Metrics})
		}
	}
	renderNodes(w, nodes)
	return w.buf.Bytes()
}

// renderNodes emits every node family, family-major so HELP/TYPE appear
// exactly once even with many labeled backends. Families no node exposes
// (controller, WAL, pre-observability histograms) are dropped entirely.
func renderNodes(w *promWriter, nodes []labeledMetrics) {
	for _, f := range nodeFamilies {
		declared := false
		for _, n := range nodes {
			v, ok := f.get(n.m)
			if !ok {
				continue
			}
			if !declared {
				w.family(f.name, f.typ, f.help)
				declared = true
			}
			w.sample(f.name, n.labels, v)
		}
	}
	for _, f := range histFamilies {
		declared := false
		for _, n := range nodes {
			h := f.get(n.m)
			if h == nil {
				continue
			}
			if !declared {
				w.family(f.name, "histogram", f.help)
				declared = true
			}
			w.histogram(f.name, n.labels, h)
		}
	}
}

func backendLabel(url string) string {
	return `backend="` + escapeLabel(url) + `"`
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// promWriter accumulates Prometheus text exposition format (version
// 0.0.4, the format every Prometheus scraper speaks).
type promWriter struct {
	buf bytes.Buffer
}

func (w *promWriter) family(name, typ, help string) {
	fmt.Fprintf(&w.buf, "# HELP %s %s\n", name, help)
	fmt.Fprintf(&w.buf, "# TYPE %s %s\n", name, typ)
}

func (w *promWriter) sample(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(&w.buf, "%s%s %s\n", name, labels, formatValue(v))
}

// histogram emits the conventional _bucket/_sum/_count series: buckets
// are cumulative, in seconds, and always end with le="+Inf".
func (w *promWriter) histogram(name, labels string, h *api.LatencyHistogram) {
	var cum int64
	for i, bound := range h.BoundsMs {
		cum += h.Counts[i]
		w.sample(name+"_bucket", joinLabels(labels, `le="`+formatValue(bound/1000)+`"`), float64(cum))
	}
	if len(h.Counts) > len(h.BoundsMs) {
		cum += h.Counts[len(h.Counts)-1]
	}
	w.sample(name+"_bucket", joinLabels(labels, `le="+Inf"`), float64(cum))
	w.sample(name+"_sum", labels, h.SumMs/1000)
	w.sample(name+"_count", labels, float64(cum))
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
