package metricsexport

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"testing"

	"relaxsched/internal/api"
)

func sampleMetrics() *api.Metrics {
	qh := NewHistogram()
	eh := NewHistogram()
	for i := 0; i < 100; i++ {
		qh.Observe(float64(i) * 0.001)
		eh.Observe(float64(i) * 0.01)
	}
	return &api.Metrics{
		UptimeSeconds: 12.5,
		JobSched:      "kbounded",
		JobSchedK:     16,
		Workers:       4,
		QueueCapacity: 256,
		Jobs:          api.JobCounts{Submitted: 10, Queued: 1, Running: 2, Done: 6, Failed: 1, Rejected: 3},
		Cache:         api.CacheStats{Entries: 2, Capacity: 8, Hits: 5, Misses: 3, Evictions: 1},
		Cost:          api.CostTotals{Pops: 1000, StalePops: 10, Wasted: 20, Steals: 7, GlobalFallbacks: 2, EmptyPolls: 40},
		RankError:     api.RankErrorStats{Count: 9, Mean: 0.5, Max: 3},
		QueueLatency:  api.LatencySummary{Count: 9, MeanMs: 1.5, P50Ms: 1, P95Ms: 4, P99Ms: 6, MaxMs: 7},
		ExecLatency:   api.LatencySummary{Count: 9, MeanMs: 20, P50Ms: 18, P95Ms: 60, P99Ms: 80, MaxMs: 90},
		Controller: &api.ControllerStats{
			Enabled: true, K: 16, Batch: 32, RankSLO: 2, P99SLOMs: 500,
			Steps: 12, Widened: 3, Tightened: 1, RankViolations: 2, P99Violations: 1,
		},
		WAL: &api.WALStats{
			Appends: 20, Fsyncs: 8, ReplayedJobs: 1, Segments: 2, Compacted: 1, Bytes: 4096, TornTail: true,
		},
		QueueLatencyHist: qh.Snapshot(),
		ExecLatencyHist:  eh.Snapshot(),
	}
}

// TestRenderNodeExposition is the parser-style table test over a node
// scrape: the shared Lint accepts it, and spot-checked families from
// every section (scheduler cost, cache, WAL, controller, rank error,
// histograms) are present exactly once with HELP and TYPE.
func TestRenderNodeExposition(t *testing.T) {
	body := Render(sampleMetrics())
	if err := Lint(body); err != nil {
		t.Fatalf("Lint rejected node exposition: %v\n%s", err, body)
	}
	text := string(body)
	for _, family := range []string{
		"relax_uptime_seconds",
		"relax_jobs_submitted_total",
		"relax_jobs_rejected_total",
		"relax_cache_hits_total",
		"relax_sched_pops_total",
		"relax_sched_steals_total",
		"relax_sched_global_fallbacks_total",
		"relax_rank_error_mean",
		"relax_controller_k",
		"relax_controller_rank_violations_total",
		"relax_wal_fsyncs_total",
		"relax_queue_latency_seconds",
		"relax_exec_latency_seconds",
	} {
		if got := strings.Count(text, "# HELP "+family+" "); got != 1 {
			t.Errorf("family %s: %d HELP lines, want 1", family, got)
		}
		if got := strings.Count(text, "# TYPE "+family+" "); got != 1 {
			t.Errorf("family %s: %d TYPE lines, want 1", family, got)
		}
	}
	if !strings.Contains(text, `relax_queue_latency_seconds_bucket{le="+Inf"} 100`) {
		t.Errorf("missing +Inf bucket with full count:\n%s", text)
	}
	if !strings.Contains(text, "relax_queue_latency_seconds_count 100") {
		t.Errorf("missing histogram _count")
	}
}

// TestRenderOmitsAbsentSections: a node without controller, WAL or
// histograms must not emit those families at all (no zero-filled fakes).
func TestRenderOmitsAbsentSections(t *testing.T) {
	m := sampleMetrics()
	m.Controller = nil
	m.WAL = nil
	m.QueueLatencyHist = nil
	m.ExecLatencyHist = nil
	body := Render(m)
	if err := Lint(body); err != nil {
		t.Fatalf("Lint rejected exposition: %v", err)
	}
	for _, absent := range []string{"relax_controller_", "relax_wal_", "relax_queue_latency_seconds_bucket"} {
		if strings.Contains(string(body), absent) {
			t.Errorf("family %s emitted for a node without the section", absent)
		}
	}
}

// TestRenderClusterExposition checks the gateway scrape: lints clean,
// carries a distinct backend label per reachable backend, emits
// gateway-own families, and never emits an unlabeled node sample that
// would double-count the labeled ones.
func TestRenderClusterExposition(t *testing.T) {
	m1, m2 := sampleMetrics(), sampleMetrics()
	m2.Controller = nil // heterogeneous fleet: only one backend runs -jobsched auto
	cm := &api.ClusterMetrics{
		Metrics:         api.Metrics{UptimeSeconds: 99, RankError: api.RankErrorStats{Count: 18, Mean: 0.4, Max: 3}},
		HealthyBackends: 2,
		Backends: []api.BackendMetrics{
			{URL: "http://b1:8081", Healthy: true, Metrics: m1},
			{URL: "http://b2:8082", Healthy: true, Metrics: m2},
			{URL: "http://b3:8083", Healthy: false, Error: "dial refused"},
		},
	}
	body := RenderCluster(cm)
	if err := Lint(body); err != nil {
		t.Fatalf("Lint rejected cluster exposition: %v\n%s", err, body)
	}
	text := string(body)
	for _, want := range []string{
		`relax_gateway_healthy_backends 2`,
		`relax_gateway_backend_up{backend="http://b1:8081"} 1`,
		`relax_gateway_backend_up{backend="http://b3:8083"} 0`,
		`relax_jobs_submitted_total{backend="http://b1:8081"} 10`,
		`relax_jobs_submitted_total{backend="http://b2:8082"} 10`,
		`relax_queue_latency_seconds_count{backend="http://b2:8082"} 100`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("cluster exposition missing %q", want)
		}
	}
	// The controller family must carry only the backend that has one.
	if strings.Contains(text, `relax_controller_k{backend="http://b2:8082"}`) {
		t.Error("controller family rendered for a backend without a controller")
	}
	if !strings.Contains(text, `relax_controller_k{backend="http://b1:8081"}`) {
		t.Error("controller family missing for the backend that has one")
	}
	// No unlabeled node samples: every relax_ (non-gateway) sample line
	// must carry a backend label.
	unlabeled := regexp.MustCompile(`(?m)^relax_(?:[a-z0-9_]+) `)
	for _, line := range unlabeled.FindAllString(text, -1) {
		if !strings.HasPrefix(line, "relax_gateway_") {
			t.Errorf("unlabeled node sample in cluster exposition: %q", line)
		}
	}
	// The unreachable backend contributes no node samples.
	if strings.Contains(text, `backend="http://b3:8083"} `) && strings.Contains(text, `relax_jobs_submitted_total{backend="http://b3:8083"}`) {
		t.Error("unreachable backend contributed node samples")
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample without HELP/TYPE": "relax_x 1\n",
		"bad family name":          "# HELP relax_Bad x\n# TYPE relax_Bad gauge\nrelax_Bad 1\n",
		"bad TYPE value":           "# HELP relax_x x\n# TYPE relax_x histo\nrelax_x 1\n",
		"TYPE after sample":        "# HELP relax_x x\nrelax_x 1\n# TYPE relax_x gauge\n",
		"unparsable value":         "# HELP relax_x x\n# TYPE relax_x gauge\nrelax_x one\n",
		"non-cumulative buckets": "# HELP relax_h x\n# TYPE relax_h histogram\n" +
			"relax_h_bucket{le=\"1\"} 5\nrelax_h_bucket{le=\"2\"} 3\nrelax_h_bucket{le=\"+Inf\"} 5\n",
		"no +Inf bucket": "# HELP relax_h x\n# TYPE relax_h histogram\n" +
			"relax_h_bucket{le=\"1\"} 5\nrelax_h_bucket{le=\"2\"} 6\n",
		"count mismatch": "# HELP relax_h x\n# TYPE relax_h histogram\n" +
			"relax_h_bucket{le=\"+Inf\"} 5\nrelax_h_count 4\n",
		"decreasing le": "# HELP relax_h x\n# TYPE relax_h histogram\n" +
			"relax_h_bucket{le=\"2\"} 5\nrelax_h_bucket{le=\"1\"} 6\nrelax_h_bucket{le=\"+Inf\"} 6\n",
	}
	for name, body := range cases {
		if err := Lint([]byte(body)); err == nil {
			t.Errorf("Lint accepted %s:\n%s", name, body)
		}
	}
	if err := Lint([]byte("")); err != nil {
		t.Errorf("Lint rejected empty body: %v", err)
	}
}

func TestHistogramSnapshotAndMerge(t *testing.T) {
	h := NewHistogram()
	h.Observe(0.0001) // first bucket (≤ 0.25 ms)
	h.Observe(0.0003) // second bucket
	h.Observe(1000)   // overflow
	h.Observe(-1)     // clamps to first bucket
	snap := h.Snapshot()
	if got := Summarize(snap).Count; got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	if snap.Counts[0] != 2 || snap.Counts[1] != 1 || snap.Counts[len(snap.Counts)-1] != 1 {
		t.Fatalf("bucket spread = %v", snap.Counts)
	}
	if want := (0.0001 + 0.0003 + 1000) * 1000; math.Abs(snap.SumMs-want) > 1e-6 {
		t.Fatalf("SumMs = %v, want %v", snap.SumMs, want)
	}
	if snap.MaxMs != 1000*1000 {
		t.Fatalf("MaxMs = %v, want 1e6", snap.MaxMs)
	}

	merged := MergeHistograms(nil, snap)
	merged = MergeHistograms(merged, snap)
	if got := Summarize(merged).Count; got != 8 {
		t.Fatalf("merged count = %d, want 8", got)
	}
	// Merging must not have aliased or mutated the source.
	if got := Summarize(snap).Count; got != 4 {
		t.Fatalf("source histogram mutated by merge: count = %d", got)
	}
	// Bounds mismatch: src dropped, dst unchanged.
	small := NewHistogram()
	small.Observe(0.002)
	if got := MergeHistograms(MergeHistograms(nil, small.Snapshot()), snap).MaxMs; got != snap.MaxMs {
		t.Fatalf("merged max = %v, want the larger %v", got, snap.MaxMs)
	}
	skewed := &api.LatencyHistogram{BoundsMs: []float64{1}, Counts: []int64{1, 1}, SumMs: 2}
	if got := Summarize(MergeHistograms(merged, skewed)).Count; got != 8 {
		t.Fatalf("version-skewed merge changed dst: count = %d", got)
	}
}

// TestSummarizeWithinOneBucket is the acceptance bound: against an exact
// percentile over the raw samples, the histogram-derived p99 must land in
// the same or an adjacent bucket, while count, mean and max stay exact.
func TestSummarizeWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	var samples []float64
	sum := 0.0
	for i := 0; i < 5000; i++ {
		// Log-uniform over ~0.3 ms .. 5 s, the service's realistic span.
		v := math.Exp(rng.Float64()*math.Log(16000)) * 0.0003
		samples = append(samples, v)
		sum += v
		h.Observe(v)
	}
	sort.Float64s(samples)
	exactP99 := samples[int(math.Ceil(0.99*float64(len(samples))))-1] * 1000 // ms
	s := Summarize(h.Snapshot())
	bucketOf := func(ms float64) int {
		for i, b := range bucketBoundsMs {
			if ms <= b {
				return i
			}
		}
		return len(bucketBoundsMs)
	}
	if d := bucketOf(s.P99Ms) - bucketOf(exactP99); d < -1 || d > 1 {
		t.Fatalf("histogram p99 %v ms in bucket %d, exact p99 %v ms in bucket %d — more than one bucket apart",
			s.P99Ms, bucketOf(s.P99Ms), exactP99, bucketOf(exactP99))
	}
	if s.Count != 5000 || math.Abs(s.MeanMs-sum/5000*1000) > 1e-9 || s.MaxMs != samples[len(samples)-1]*1000 {
		t.Fatalf("count/mean/max = %d/%v/%v, want 5000/%v/%v", s.Count, s.MeanMs, s.MaxMs, sum/5000*1000, samples[len(samples)-1]*1000)
	}
	if !(s.P50Ms <= s.P95Ms && s.P95Ms <= s.P99Ms && s.P99Ms <= s.MaxMs) {
		t.Fatalf("percentiles out of order: %+v", s)
	}
	if Summarize(nil) != (api.LatencySummary{}) || Summarize(NewHistogram().Snapshot()) != (api.LatencySummary{}) {
		t.Fatal("nil or empty histogram does not summarize to zeros")
	}
}

// TestSummarizeInterpolates pins the histogram_quantile rule on hand-built
// buckets: linear inside the bucket holding the rank, up from zero in the
// first bucket, up to the max in the overflow bucket, clamped to the max.
func TestSummarizeInterpolates(t *testing.T) {
	h := &api.LatencyHistogram{BoundsMs: []float64{1, 2, 4}, Counts: []int64{50, 0, 50, 0}, SumMs: 150, MaxMs: 3.5}
	s := Summarize(h)
	// p50: rank 50 is the top of the first bucket (0, 1].
	// p95: rank 95 is 45/50 of the way through (2, 4] → 3.8, clamped to 3.5.
	if s.P50Ms != 1 || s.P95Ms != 3.5 || s.P99Ms != 3.5 || s.MeanMs != 1.5 || s.Count != 100 {
		t.Fatalf("summary = %+v", s)
	}
	h = &api.LatencyHistogram{BoundsMs: []float64{1, 2, 4}, Counts: []int64{0, 100, 0, 0}, MaxMs: 2}
	if got := Summarize(h).P50Ms; got != 1.5 {
		t.Fatalf("p50 inside (1, 2] = %v, want 1.5", got)
	}
	// Overflow bucket (4, max=12]: rank 99 is the 98th of its 99 entries.
	h = &api.LatencyHistogram{BoundsMs: []float64{1, 2, 4}, Counts: []int64{1, 0, 0, 99}, MaxMs: 12}
	if got, want := Summarize(h).P99Ms, 4+8*98.0/99; math.Abs(got-want) > 1e-9 {
		t.Fatalf("overflow p99 = %v, want %v", got, want)
	}
}

func TestDebugHandler(t *testing.T) {
	srv := httptest.NewServer(DebugHandler())
	defer srv.Close()
	for path, wantType := range map[string]string{
		"/debug/vars":   "application/json",
		"/debug/pprof/": "text/html",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, wantType) {
			t.Errorf("GET %s content-type = %q, want %q", path, ct, wantType)
		}
	}
}
