package integration

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"relaxsched/internal/api"
	"relaxsched/internal/service"
)

// burstyLoad is the shared closed-loop workload for the controller e2e: a
// handful of clients hammering a single-worker node with a wide priority
// spread. Under the exact scheduler a job that drew a bad priority keeps
// losing to the newcomers the other clients submit — the starvation tail the
// adaptive controller exists to cut.
func burstyLoad(baseURL string) service.LoadConfig {
	return service.LoadConfig{
		BaseURL:        baseURL,
		Clients:        32,
		Jobs:           320,
		Workloads:      []string{"mis"},
		Mode:           "concurrent",
		Threads:        1,
		Graph:          api.GraphSpec{Model: api.ModelGNP, N: 20000, Edges: 80000, Seed: 7},
		PrioritySpread: 1000,
		PollInterval:   time.Millisecond,
	}
}

func runBursty(t *testing.T, opts service.Options) service.LoadResult {
	t.Helper()
	mgr, err := service.NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(mgr))
	defer func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Close(ctx)
	}()
	res, err := service.RunLoad(context.Background(), burstyLoad(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("jobsched=%s: %d jobs failed", opts.JobSched, res.Failed)
	}
	return res
}

// TestAdaptiveControllerBurstyLoadE2E drives the same bursty closed-loop
// load through a real HTTP stack against an exact node and an adaptive
// (-jobsched auto) node, and checks the controller's contract end to end:
// the auto node's mean rank error stays within the operator's -rank-slo,
// its p99 queue latency beats exact's (the whole point of widening), and
// the k/batch trajectory is visible in the /v1/metrics controller section.
func TestAdaptiveControllerBurstyLoadE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("bursty controller e2e is slow")
	}
	const rankSLO = 16

	exact := runBursty(t, service.Options{
		Workers: 1, QueueDepth: 24, JobSched: service.JobSchedExact,
	})
	auto := runBursty(t, service.Options{
		Workers: 1, QueueDepth: 24, JobSched: service.JobSchedAuto,
		RankSLO:         rankSLO,
		P99SLO:          25 * time.Millisecond,
		ControlInterval: 3 * time.Millisecond,
	})

	if exact.Metrics.Controller != nil {
		t.Fatalf("exact node grew a controller section: %+v", exact.Metrics.Controller)
	}
	c := auto.Metrics.Controller
	if c == nil || !c.Enabled {
		t.Fatalf("auto node reported no controller section: %+v", auto.Metrics)
	}
	if auto.Metrics.JobSched != service.JobSchedAuto || auto.Metrics.JobSchedK != 0 {
		t.Fatalf("auto node identity: sched=%q k=%d, want auto/0 (live k belongs to the controller)",
			auto.Metrics.JobSched, auto.Metrics.JobSchedK)
	}
	if c.RankSLO != rankSLO || c.Steps == 0 {
		t.Fatalf("controller echo: %+v", c)
	}
	// The single worker cannot keep 16 closed-loop clients under the 25ms
	// p99 target, so the controller must have widened past its exact start.
	if c.Widened == 0 || c.K <= 1 {
		t.Fatalf("controller never widened under sustained pressure: %+v", c)
	}
	if c.P99Violations == 0 {
		t.Fatalf("no p99 violations counted under overload: %+v", c)
	}

	// The SLO the controller is chartered to hold: mean job rank error at or
	// under -rank-slo. (It holds with slack — 16 closed-loop clients keep at
	// most 16 jobs pending, so even near-FIFO dispatch averages about half
	// that in rank error — but the assertion is on the measured wire value,
	// end to end.)
	if mean := auto.Metrics.RankError.Mean; mean > rankSLO {
		t.Fatalf("auto mean rank error %.2f exceeds SLO %d", mean, rankSLO)
	}
	// And the payoff for relaxing: the starvation tail the exact heap builds
	// under this load must shrink. Exact's p99 is many service times (the
	// unluckiest job keeps losing to fresh higher-priority arrivals); the
	// widened queue dispatches near-FIFO, bounding every job's wait. Both
	// p99s are metricsexport.Summarize over each node's lifetime queue
	// histogram, interpolated inside the bucket.
	if auto.Metrics.QueueLatency.P99Ms >= exact.Metrics.QueueLatency.P99Ms {
		t.Fatalf("auto p99 %.1fms did not beat exact p99 %.1fms",
			auto.Metrics.QueueLatency.P99Ms, exact.Metrics.QueueLatency.P99Ms)
	}
	t.Logf("p99 queue latency: exact=%.1fms auto=%.1fms; auto rank mean=%.2f k=%d batch=%d widened=%d tightened=%d",
		exact.Metrics.QueueLatency.P99Ms, auto.Metrics.QueueLatency.P99Ms,
		auto.Metrics.RankError.Mean, c.K, c.Batch, c.Widened, c.Tightened)
}
