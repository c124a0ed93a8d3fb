package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"relaxsched/internal/api"
	"relaxsched/internal/metricsexport"
	"relaxsched/internal/service"
	"relaxsched/internal/trace"
)

// testBackend is one in-process relaxd: a real service.Manager behind a
// real HTTP server, so the gateway's client stack is exercised end to end.
type testBackend struct {
	mgr *service.Manager
	srv *httptest.Server
}

func startBackend(t *testing.T) *testBackend {
	t.Helper()
	mgr, err := service.NewManager(service.Options{Workers: 1, QueueDepth: 64, JobSched: service.JobSchedExact, CacheCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(mgr))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Close(ctx)
	})
	return &testBackend{mgr: mgr, srv: srv}
}

func newTestGateway(t *testing.T, urls ...string) *Gateway {
	t.Helper()
	g, err := New(Options{Backends: urls, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// deadBackendURL returns a URL nothing listens on.
func deadBackendURL(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()
	return url
}

func misSpec(seed uint64) api.JobSpec {
	spec := api.DefaultJobSpec()
	spec.Workload = "mis"
	spec.Graph = api.GraphSpec{N: 500, Edges: 2000, Seed: seed}
	return spec
}

func waitDone(t *testing.T, d api.Dispatcher, id int64) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := d.Status(context.Background(), id)
		if err != nil {
			t.Fatalf("status %d: %v", id, err)
		}
		switch st.State {
		case api.StateDone:
			return st
		case api.StateFailed, api.StateCanceled:
			t.Fatalf("job %d ended %s: %s", id, st.State, st.Error)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %d did not finish", id)
	return api.JobStatus{}
}

// TestGatewayGraphAffinity: identical graph specs route to one backend,
// so the second submission hits that backend's graph cache; a different
// spec may land anywhere but must still round-trip.
func TestGatewayGraphAffinity(t *testing.T) {
	b1, b2 := startBackend(t), startBackend(t)
	g := newTestGateway(t, b1.srv.URL, b2.srv.URL)
	ctx := context.Background()

	first, err := g.Submit(ctx, misSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, g, first.ID)
	second, err := g.Submit(ctx, misSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if first.ID%idStride != second.ID%idStride {
		t.Fatalf("identical specs routed to backends %d and %d", first.ID%idStride, second.ID%idStride)
	}
	st := waitDone(t, g, second.ID)
	if st.Result == nil || !st.Result.GraphCacheHit {
		t.Fatalf("repeat submit missed the owner's graph cache: %+v", st.Result)
	}
	if st.Result.Verified != true {
		t.Fatalf("job not verified: %+v", st.Result)
	}

	// Many distinct specs must use both backends — affinity, not pinning.
	used := map[int64]bool{}
	for seed := uint64(1); seed <= 32; seed++ {
		spec := misSpec(seed)
		spec.Graph.N = 100 + int(seed)
		spec.Graph.Edges = 200
		st, err := g.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		used[st.ID%idStride] = true
		waitDone(t, g, st.ID)
	}
	if len(used) != 2 {
		t.Fatalf("32 distinct graph keys all routed to backends %v", used)
	}
}

// TestGatewayFailover: submissions walk past an unreachable owner to the
// next backend; with every backend down the gateway answers backend_down.
func TestGatewayFailover(t *testing.T) {
	live := startBackend(t)
	dead := deadBackendURL(t)
	g := newTestGateway(t, dead, live.srv.URL)
	ctx := context.Background()

	// Whatever the ring says, every submission must end up on the live
	// backend (the dead one fails its first attempt and is marked down).
	for seed := uint64(1); seed <= 8; seed++ {
		st, err := g.Submit(ctx, misSpec(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		waitDone(t, g, st.ID)
	}
	if g.HealthyBackends() != 1 {
		t.Fatalf("healthy backends = %d, want 1", g.HealthyBackends())
	}

	allDead := newTestGateway(t, deadBackendURL(t), deadBackendURL(t))
	if _, err := allDead.Submit(ctx, misSpec(1)); !api.IsCode(err, api.CodeBackendDown) {
		t.Fatalf("submit with no live backend: %v, want %s", err, api.CodeBackendDown)
	}
}

// TestGatewayCallerCancelKeepsBackendsHealthy: a request whose caller has
// already hung up fails with the context error, and no backend is marked
// down for it — one client's cancellation must not take the fleet out of
// the submit rotation.
func TestGatewayCallerCancelKeepsBackendsHealthy(t *testing.T) {
	b1, b2 := startBackend(t), startBackend(t)
	g := newTestGateway(t, b1.srv.URL, b2.srv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := g.Submit(ctx, misSpec(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("submit with a cancelled context: %v, want %v", err, context.Canceled)
	}
	if _, err := g.Status(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("status with a cancelled context: %v, want %v", err, context.Canceled)
	}
	if _, err := g.JobTrace(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("trace with a cancelled context: %v, want %v", err, context.Canceled)
	}
	if _, err := g.Workloads(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("workloads with a cancelled context: %v, want %v", err, context.Canceled)
	}
	if h := g.HealthyBackends(); h != 2 {
		t.Fatalf("healthy backends = %d after cancelled calls, want 2", h)
	}
	if _, err := g.Submit(context.Background(), misSpec(1)); err != nil {
		t.Fatalf("submit after cancelled calls: %v", err)
	}
}

// TestGatewayHandler502: over HTTP, a dead-backend submission is a 502
// carrying the shared error envelope.
func TestGatewayHandler502(t *testing.T) {
	g := newTestGateway(t, deadBackendURL(t))
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"workload":"mis","graph":{"n":100,"edges":200}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %s, want 502", resp.Status)
	}
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != api.CodeBackendDown || e.Message == "" {
		t.Fatalf("envelope = %+v", e)
	}

	// /healthz reflects the dead fleet after the failed submission.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %s with all backends down, want 503", hresp.Status)
	}
}

// TestGatewayStatusRouting: unknown and malformed global ids are 404s,
// and a backend's own unknown-job answer passes through.
func TestGatewayStatusRouting(t *testing.T) {
	b := startBackend(t)
	g := newTestGateway(t, b.srv.URL)
	ctx := context.Background()

	if _, err := g.Status(ctx, -1); !api.IsCode(err, api.CodeUnknownJob) {
		t.Fatalf("negative id: %v", err)
	}
	// Backend index 7 does not exist in a 1-backend cluster.
	if _, err := g.Status(ctx, 3*idStride+7); !api.IsCode(err, api.CodeUnknownJob) {
		t.Fatalf("bad backend index: %v", err)
	}
	// Valid index, id the backend never issued.
	if _, err := g.Status(ctx, 999999*idStride); !api.IsCode(err, api.CodeUnknownJob) {
		t.Fatalf("unknown local id: %v", err)
	}
}

// TestGatewayClusterMetricsAndRankError: the aggregate sums backend
// counters, reports both backends healthy, and carries the gateway's
// global rank-error measurement (one observation per job seen leaving
// the queued state).
func TestGatewayClusterMetricsAndRankError(t *testing.T) {
	b1, b2 := startBackend(t), startBackend(t)
	g := newTestGateway(t, b1.srv.URL, b2.srv.URL)
	ctx := context.Background()

	const jobs = 6
	for seed := uint64(1); seed <= jobs; seed++ {
		spec := misSpec(seed)
		spec.Priority = uint32(seed * 10)
		st, err := g.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, g, st.ID)
	}

	cm := g.ClusterMetrics(ctx)
	if cm.HealthyBackends != 2 || len(cm.Backends) != 2 {
		t.Fatalf("healthy=%d backends=%d", cm.HealthyBackends, len(cm.Backends))
	}
	if cm.Jobs.Done != jobs {
		t.Fatalf("aggregate done = %d, want %d", cm.Jobs.Done, jobs)
	}
	var perNode int64
	for _, row := range cm.Backends {
		if row.Metrics == nil {
			t.Fatalf("backend %s has no metrics: %s", row.URL, row.Error)
		}
		perNode += row.Metrics.Jobs.Done
	}
	if perNode != jobs {
		t.Fatalf("per-backend done sums to %d, want %d", perNode, jobs)
	}
	if cm.Workers != 2 || cm.QueueCapacity != 128 {
		t.Fatalf("workers=%d queue=%d, want sums 2 and 128", cm.Workers, cm.QueueCapacity)
	}
	if cm.JobSched != service.JobSchedExact {
		t.Fatalf("job_sched = %q, want %q (homogeneous fleet)", cm.JobSched, service.JobSchedExact)
	}
	// Every job was polled out of queued, so the global tracker observed
	// every departure and the live set is empty again.
	if cm.RankError.Count != jobs {
		t.Fatalf("global rank-error count = %d, want %d", cm.RankError.Count, jobs)
	}
	g.mu.Lock()
	liveLen, pendingLen := g.tracker.Len(), len(g.pending)
	g.mu.Unlock()
	if liveLen != 0 || pendingLen != 0 {
		t.Fatalf("tracker leaked: live=%d pending=%d", liveLen, pendingLen)
	}
}

// TestGatewayDrain: draining stops gateway admission with the draining
// envelope and fans out to the backends.
func TestGatewayDrain(t *testing.T) {
	b := startBackend(t)
	g := newTestGateway(t, b.srv.URL)
	ctx := context.Background()

	if err := g.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Submit(ctx, misSpec(1)); !api.IsCode(err, api.CodeDraining) {
		t.Fatalf("submit after drain: %v", err)
	}
	m, err := api.NewClient(b.srv.URL).Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Draining {
		t.Fatal("backend did not receive the drain fan-out")
	}
}

// cannedMetricsBackend serves a fixed /v1/metrics snapshot (plus a healthy
// /healthz), so aggregation tests can assemble arbitrary heterogeneous
// fleets without spinning up real managers.
func cannedMetricsBackend(t *testing.T, m api.Metrics) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(m)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestGatewayControllerAggregation: the cluster controller section sums the
// violation/adjustment counters, averages the live k and batch over the
// backends that actually run a controller, keeps the SLO echo only while
// every controller agrees, and drops the per-node LastAdjustment. Static
// backends (no controller section) don't dilute the averages, and a fleet
// with no controllers reports no section at all.
func TestGatewayControllerAggregation(t *testing.T) {
	autoA := api.Metrics{JobSched: service.JobSchedAuto, Controller: &api.ControllerStats{
		Enabled: true, K: 2, Batch: 16, RankSLO: 2, P99SLOMs: 5000,
		Steps: 100, Widened: 10, Tightened: 4, RankViolations: 3, P99Violations: 7,
		LastAdjustment: "tighten: window rank error 2.50 > SLO 2.00; k=2 batch=16",
	}}
	autoB := api.Metrics{JobSched: service.JobSchedAuto, Controller: &api.ControllerStats{
		Enabled: true, K: 6, Batch: 48, RankSLO: 2, P99SLOMs: 5000,
		Steps: 80, Widened: 25, Tightened: 1, RankViolations: 1, P99Violations: 30,
		LastAdjustment: "widen: queue p99 6000ms > SLO 5000ms; k=6 batch=48",
	}}
	static := api.Metrics{JobSched: service.JobSchedExact}

	g := newTestGateway(t,
		cannedMetricsBackend(t, autoA),
		cannedMetricsBackend(t, autoB),
		cannedMetricsBackend(t, static))
	cm := g.ClusterMetrics(context.Background())

	c := cm.Controller
	if c == nil || !c.Enabled {
		t.Fatalf("controller section = %+v", c)
	}
	// Means over the two reporting controllers, rounded: (2+6)/2, (16+48)/2.
	if c.K != 4 || c.Batch != 32 {
		t.Fatalf("k=%d batch=%d, want means 4 and 32", c.K, c.Batch)
	}
	if c.Steps != 180 || c.Widened != 35 || c.Tightened != 5 {
		t.Fatalf("steps=%d widened=%d tightened=%d, want sums 180/35/5", c.Steps, c.Widened, c.Tightened)
	}
	if c.RankViolations != 4 || c.P99Violations != 37 {
		t.Fatalf("violations rank=%d p99=%d, want sums 4/37", c.RankViolations, c.P99Violations)
	}
	if c.RankSLO != 2 || c.P99SLOMs != 5000 {
		t.Fatalf("agreeing SLO echo lost: rank=%v p99=%v", c.RankSLO, c.P99SLOMs)
	}
	if c.LastAdjustment != "" {
		t.Fatalf("cluster aggregate kept a per-node LastAdjustment: %q", c.LastAdjustment)
	}

	// Disagreeing SLOs zero the echo — same convention as JobSchedK under a
	// mixed fleet — while the counters still sum.
	autoC := api.Metrics{JobSched: service.JobSchedAuto, Controller: &api.ControllerStats{
		Enabled: true, K: 1, Batch: 1, RankSLO: 8, P99SLOMs: 250, Steps: 5,
	}}
	g2 := newTestGateway(t,
		cannedMetricsBackend(t, autoA),
		cannedMetricsBackend(t, autoC))
	c2 := g2.ClusterMetrics(context.Background()).Controller
	if c2 == nil || c2.RankSLO != 0 || c2.P99SLOMs != 0 {
		t.Fatalf("disagreeing SLO echo = %+v, want zeroed", c2)
	}
	if c2.Steps != 105 {
		t.Fatalf("steps = %d, want 105", c2.Steps)
	}

	// A fleet with no controllers omits the section entirely.
	g3 := newTestGateway(t, cannedMetricsBackend(t, static))
	if cm3 := g3.ClusterMetrics(context.Background()); cm3.Controller != nil {
		t.Fatalf("static fleet grew a controller section: %+v", cm3.Controller)
	}
}

// TestGatewayClusterLatencyPercentiles: the cluster queue-latency summary
// is a summary of every backend's jobs together, not a count-weighted mean
// of per-backend percentiles. Backend A ran 1000 jobs at 1 ms and B 20 at
// 1000 ms: B's jobs are 2 % of the fleet, so the cluster p99 is one of
// them — in B's (512, 1024] ms bucket — while averaging the two p99s
// would report about 20 ms. Count, mean and max stay exact.
func TestGatewayClusterLatencyPercentiles(t *testing.T) {
	backend := func(jobs int, seconds float64) api.Metrics {
		h := metricsexport.NewHistogram()
		for i := 0; i < jobs; i++ {
			h.Observe(seconds)
		}
		ms := seconds * 1000
		return api.Metrics{
			JobSched: service.JobSchedExact,
			QueueLatency: api.LatencySummary{
				Count: int64(jobs), MeanMs: ms, P50Ms: ms, P95Ms: ms, P99Ms: ms, MaxMs: ms,
			},
			QueueLatencyHist: h.Snapshot(),
		}
	}
	g := newTestGateway(t,
		cannedMetricsBackend(t, backend(1000, 0.001)),
		cannedMetricsBackend(t, backend(20, 1)))
	q := g.ClusterMetrics(context.Background()).QueueLatency
	if q.P99Ms <= 512 || q.P99Ms > 1024 {
		t.Fatalf("cluster p99 = %.1f ms, want it in backend B's (512, 1024] ms bucket", q.P99Ms)
	}
	if wantMean := (1000*1.0 + 20*1000.0) / 1020; q.Count != 1020 || math.Abs(q.MeanMs-wantMean) > 1e-6 || q.MaxMs != 1000 {
		t.Fatalf("cluster count/mean/max = %d/%.3f/%.1f, want 1020/%.3f/1000", q.Count, q.MeanMs, q.MaxMs, wantMean)
	}
}

// TestGatewayWALAggregation: the cluster WAL section sums every counter
// over the backends that run a log, ORs the torn-tail flag, leaves
// log-less backends out, and omits the section for a fleet with no logs.
func TestGatewayWALAggregation(t *testing.T) {
	durableA := api.Metrics{JobSched: service.JobSchedExact, WAL: &api.WALStats{
		Appends: 100, Fsyncs: 40, ReplayedJobs: 3, Segments: 2, Compacted: 5, Bytes: 4096,
	}}
	durableB := api.Metrics{JobSched: service.JobSchedExact, WAL: &api.WALStats{
		Appends: 50, Fsyncs: 9, ReplayedJobs: 0, Segments: 1, Compacted: 0, Bytes: 512, TornTail: true,
	}}
	ephemeral := api.Metrics{JobSched: service.JobSchedExact}

	g := newTestGateway(t,
		cannedMetricsBackend(t, durableA),
		cannedMetricsBackend(t, durableB),
		cannedMetricsBackend(t, ephemeral))
	w := g.ClusterMetrics(context.Background()).WAL
	if w == nil {
		t.Fatal("cluster aggregate has no WAL section")
	}
	if w.Appends != 150 || w.Fsyncs != 49 || w.ReplayedJobs != 3 {
		t.Fatalf("appends=%d fsyncs=%d replayed=%d, want sums 150/49/3", w.Appends, w.Fsyncs, w.ReplayedJobs)
	}
	if w.Segments != 3 || w.Compacted != 5 || w.Bytes != 4608 {
		t.Fatalf("segments=%d compacted=%d bytes=%d, want sums 3/5/4608", w.Segments, w.Compacted, w.Bytes)
	}
	if !w.TornTail {
		t.Fatal("torn-tail flag lost in aggregation")
	}

	// A fleet with no logs omits the section entirely.
	g2 := newTestGateway(t, cannedMetricsBackend(t, ephemeral))
	if cm := g2.ClusterMetrics(context.Background()); cm.WAL != nil {
		t.Fatalf("log-less fleet grew a WAL section: %+v", cm.WAL)
	}
}

// TestGatewayJobTrace: a trace fetched through the gateway routes to the
// owning backend, comes back under the job's global id and the caller's
// trace id, and is prefixed with the gateway's own submit hop span.
func TestGatewayJobTrace(t *testing.T) {
	b := startBackend(t)
	g := newTestGateway(t, b.srv.URL)
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	cli := api.NewClient(srv.URL)

	ctx := trace.ContextWithID(context.Background(), "trace-gw-e2e")
	st, err := cli.Submit(ctx, misSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, g, st.ID)

	tr, err := cli.JobTrace(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ID != st.ID {
		t.Fatalf("trace reports job %d, want global id %d", tr.ID, st.ID)
	}
	if tr.TraceID != "trace-gw-e2e" {
		t.Fatalf("trace carries trace_id %q, want trace-gw-e2e", tr.TraceID)
	}
	if len(tr.Spans) == 0 || tr.Spans[0].Name != "gateway.submit" {
		t.Fatalf("first span = %+v, want gateway.submit", tr.Spans)
	}
	hop := tr.Spans[0]
	if hop.StartNanos > 0 {
		t.Fatalf("gateway hop starts at +%dns — the hop begins before the backend accepts", hop.StartNanos)
	}
	if hop.EndNanos <= hop.StartNanos {
		t.Fatalf("gateway hop has non-positive duration: %+v", hop)
	}
	if !strings.Contains(hop.Detail, b.srv.URL) {
		t.Fatalf("hop detail %q does not name the backend %s", hop.Detail, b.srv.URL)
	}
	want := []string{"accepted", "queued", "dispatched", "executing", "done"}
	i := 0
	for _, s := range tr.Spans[1:] {
		if i < len(want) && s.Name == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("backend spans %v missing lifecycle subsequence %v (matched %d)", tr.Spans, want, i)
	}

	// Unknown global ids answer unknown_job without touching a backend.
	if _, err := g.JobTrace(ctx, int64(len(g.backends))+idStride*999999); !api.IsCode(err, api.CodeUnknownJob) {
		t.Fatalf("unknown trace: %v", err)
	}
}

// TestGatewayHealthDrainingVsDead: the health checker separates a
// draining backend (alive, finishing work, out of the submit rotation)
// from a dead one, using the explicit healthz status body instead of
// inferring from a 503.
func TestGatewayHealthDrainingVsDead(t *testing.T) {
	b := startBackend(t)
	dead := deadBackendURL(t)
	g := newTestGateway(t, b.srv.URL, dead)
	ctx := context.Background()

	if err := api.NewClient(b.srv.URL).Drain(ctx); err != nil {
		t.Fatal(err)
	}
	g.checkHealth(5 * time.Second)

	if g.backends[0].healthy.Load() {
		t.Fatal("draining backend still in the submit rotation")
	}
	if !g.backends[0].draining.Load() {
		t.Fatal("draining backend not recognized as draining")
	}
	if g.backends[1].healthy.Load() || g.backends[1].draining.Load() {
		t.Fatal("dead backend classified as alive")
	}
}

// TestGatewayHealthzDraining: a draining gateway reports it explicitly
// with a 200 — it is alive and finishing work — while a gateway with no
// reachable backend stays 503 (covered by TestGatewayHandler502).
func TestGatewayHealthzDraining(t *testing.T) {
	b := startBackend(t)
	g := newTestGateway(t, b.srv.URL)
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)

	if err := g.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %s, want 200", resp.Status)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != api.StatusDraining {
		t.Fatalf("healthz status = %v, want %q", body["status"], api.StatusDraining)
	}
}

// TestGatewayPromScrape: the gateway's Prometheus exposition passes the
// parser-style lint and labels each backend's series with its URL, so a
// two-backend fleet scrapes as two distinct label sets.
func TestGatewayPromScrape(t *testing.T) {
	b1, b2 := startBackend(t), startBackend(t)
	g := newTestGateway(t, b1.srv.URL, b2.srv.URL)
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)

	// Give the fleet some numbers to render.
	st, err := g.Submit(context.Background(), misSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, g, st.ID)

	resp, err := http.Get(srv.URL + "/v1/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prom scrape: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metricsexport.ContentType {
		t.Fatalf("content type %q, want %q", ct, metricsexport.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := metricsexport.Lint(body); err != nil {
		t.Fatalf("gateway exposition failed lint: %v\n%s", err, body)
	}
	for _, u := range []string{b1.srv.URL, b2.srv.URL} {
		want := `backend="` + u + `"`
		if !strings.Contains(string(body), want) {
			t.Fatalf("exposition missing label %s:\n%s", want, body)
		}
	}
}
