package service

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"relaxsched/internal/api"
)

// testSpec returns a small valid job spec for unit tests.
func testSpec(workloadName, mode string) api.JobSpec {
	spec := api.DefaultJobSpec()
	spec.Workload = workloadName
	spec.Mode = mode
	spec.Graph = api.GraphSpec{Model: api.ModelGNP, N: 400, Edges: 1600, Seed: 7}
	spec.Seed = 5
	return spec
}

// waitJob polls the manager until the job leaves the queued/running states.
func waitJob(t *testing.T, m *Manager, id int64) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != api.StateQueued && st.State != api.StateRunning {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %d did not finish", id)
	return api.JobStatus{}
}

// TestManagerEndToEndAllWorkloadsAllModes is the subsystem's core
// acceptance: every registry workload in every execution mode submits,
// executes, verifies and reports a result through the manager, and every
// dispatch records a queue rank.
func TestManagerEndToEndAllWorkloadsAllModes(t *testing.T) {
	m, err := NewManager(Options{Workers: 2, JobSched: JobSchedMultiQueue, JobSchedK: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	workloads := []string{"mis", "coloring", "matching", "sssp", "kcore", "pagerank"}
	modes := []string{"sequential", "relaxed", "concurrent", "exact"}
	var ids []int64
	var queueNs, execNs []int64
	for _, wl := range workloads {
		for _, mode := range modes {
			st, err := m.Submit(testSpec(wl, mode))
			if err != nil {
				t.Fatalf("%s/%s: %v", wl, mode, err)
			}
			if st.State != api.StateQueued {
				t.Fatalf("%s/%s: submitted job in state %q", wl, mode, st.State)
			}
			ids = append(ids, st.ID)
		}
	}
	for i, id := range ids {
		st := waitJob(t, m, id)
		if st.State != api.StateDone {
			t.Fatalf("%s/%s: job ended %q: %s", workloads[i/len(modes)], modes[i%len(modes)], st.State, st.Error)
		}
		if !st.Result.Verified {
			t.Fatalf("job %d not verified", id)
		}
		if st.Result.Summary == "" || st.Result.WastedWorkLabel == "" {
			t.Fatalf("job %d result incomplete: %+v", id, st.Result)
		}
		if st.QueueRank < 1 {
			t.Fatalf("job %d has no queue rank", id)
		}
		if st.QueueNanos < 0 {
			t.Fatalf("job %d has negative queue latency", id)
		}
		queueNs = append(queueNs, st.QueueNanos)
		execNs = append(execNs, st.Result.ExecNanos)
	}

	met := m.Metrics()
	if met.Jobs.Done != int64(len(ids)) {
		t.Fatalf("metrics report %d done jobs, want %d", met.Jobs.Done, len(ids))
	}
	if met.RankError.Count != int64(len(ids)) {
		t.Fatalf("metrics report %d dispatches, want %d", met.RankError.Count, len(ids))
	}
	// All 24 jobs share one graph spec: exactly one CSR build, the rest
	// cache hits (some possibly piggybacked on the in-flight build).
	if met.Cache.Misses != 1 {
		t.Fatalf("cache misses = %d, want 1", met.Cache.Misses)
	}
	if met.Cache.Hits != int64(len(ids)-1) {
		t.Fatalf("cache hits = %d, want %d", met.Cache.Hits, len(ids)-1)
	}
	if met.Cost.Pops == 0 {
		t.Fatal("no pops accumulated in cost totals")
	}
	// The summaries' count, mean and max are exact over the jobs' own
	// recorded queue waits and execution times.
	for _, c := range []struct {
		name string
		got  api.LatencySummary
		ns   []int64
	}{{"queue", met.QueueLatency, queueNs}, {"exec", met.ExecLatency, execNs}} {
		var sum, maxNs int64
		for _, v := range c.ns {
			sum += v
			maxNs = max(maxNs, v)
		}
		mean, maxMs := float64(sum)/float64(len(c.ns))/1e6, float64(maxNs)/1e6
		if c.got.Count != int64(len(c.ns)) || math.Abs(c.got.MeanMs-mean) > 1e-9*mean || math.Abs(c.got.MaxMs-maxMs) > 1e-9*maxMs {
			t.Fatalf("%s latency count/mean/max = %d/%v/%v, want %d/%v/%v",
				c.name, c.got.Count, c.got.MeanMs, c.got.MaxMs, len(c.ns), mean, maxMs)
		}
	}
}

// TestAdmissionControlQueueFull: with no workers draining, the queue-depth
// bound rejects the overflow submission with ErrQueueFull and counts it.
func TestAdmissionControlQueueFull(t *testing.T) {
	m, err := NewManager(Options{startPaused: true, QueueDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Submit(testSpec("mis", "sequential")); err != nil {
			t.Fatalf("submission %d rejected: %v", i, err)
		}
	}
	if _, err := m.Submit(testSpec("mis", "sequential")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submission returned %v, want ErrQueueFull", err)
	}
	if got := m.Metrics().Jobs.Rejected; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	// A forced close cancels the still-queued jobs rather than leaving them
	// queued forever (no workers will ever drain them).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Close(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("forced close returned %v", err)
	}
	for id := int64(1); id <= 3; id++ {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != api.StateCanceled {
			t.Fatalf("job %d left in state %q after forced close", id, st.State)
		}
	}
	if got := m.Metrics().Jobs.Canceled; got != 3 {
		t.Fatalf("canceled counter = %d, want 3", got)
	}
}

// TestSubmitValidation: malformed specs never enter the queue.
func TestSubmitValidation(t *testing.T) {
	m, err := NewManager(Options{startPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		m.Close(ctx)
	}()

	cases := map[string]func(*api.JobSpec){
		"missing workload":  func(s *api.JobSpec) { s.Workload = "" },
		"unknown workload":  func(s *api.JobSpec) { s.Workload = "galactic" },
		"unknown mode":      func(s *api.JobSpec) { s.Mode = "quantum" },
		"zero k":            func(s *api.JobSpec) { s.K = 0 },
		"negative threads":  func(s *api.JobSpec) { s.Threads = -1 },
		"negative batch":    func(s *api.JobSpec) { s.Batch = -1 },
		"zero vertices":     func(s *api.JobSpec) { s.Graph.N = 0 },
		"huge graph":        func(s *api.JobSpec) { s.Graph.N = api.MaxGraphVertices + 1 },
		"huge edge target":  func(s *api.JobSpec) { s.Graph.Edges = api.MaxGraphEdges + 1 },
		"unknown model":     func(s *api.JobSpec) { s.Graph.Model = "hypercube" },
		"bad exponent":      func(s *api.JobSpec) { s.Graph.Model = api.ModelPowerLaw; s.Graph.Exponent = 0.5 },
		"negative tol":      func(s *api.JobSpec) { s.Tolerance = -1 },
		"damping too large": func(s *api.JobSpec) { s.Damping = 1.5 },
		"bad source":        func(s *api.JobSpec) { s.Source = -2 },
	}
	for name, mutate := range cases {
		spec := testSpec("mis", "sequential")
		mutate(&spec)
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if got := m.Metrics().Jobs.Submitted; got != 0 {
		t.Fatalf("%d invalid submissions entered the queue", got)
	}
}

// TestGracefulDrainRunsQueuedJobs: Close with a live context lets the
// workers run every queued job to completion, and the worker goroutines all
// exit (checked against the pre-manager goroutine count).
func TestGracefulDrainRunsQueuedJobs(t *testing.T) {
	before := runtime.NumGoroutine()
	m, err := NewManager(Options{Workers: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 8; i++ {
		spec := testSpec("mis", "concurrent")
		spec.Priority = uint32(i)
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != api.StateDone {
			t.Fatalf("job %d ended %q after graceful drain: %s", id, st.State, st.Error)
		}
	}
	// Submissions after Close are rejected.
	if _, err := m.Submit(testSpec("mis", "sequential")); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-close submission returned %v, want ErrDraining", err)
	}
	waitForGoroutines(t, before)
}

// TestForcedDrainAbortsInFlight: a Close whose context expires immediately
// cancels queued jobs and aborts in-flight concurrent executions; nothing
// is left queued or running and the workers exit.
func TestForcedDrainAbortsInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	m, err := NewManager(Options{Workers: 1, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	// A somewhat larger instance so a run is still in flight when the
	// forced close lands; batch size 1 maximizes abort opportunities.
	var ids []int64
	for i := 0; i < 6; i++ {
		spec := testSpec("pagerank", "concurrent")
		spec.Graph = api.GraphSpec{Model: api.ModelGNP, N: 20_000, Edges: 80_000, Seed: 9}
		spec.Batch = 1
		spec.Tolerance = 1e-10
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	closeErr := m.Close(ctx)
	if closeErr == nil {
		t.Log("drain finished inside the grace period; nothing was aborted")
	} else if !errors.Is(closeErr, context.DeadlineExceeded) {
		t.Fatalf("forced close returned %v", closeErr)
	}
	states := map[api.JobState]int{}
	for _, id := range ids {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == api.StateQueued || st.State == api.StateRunning {
			t.Fatalf("job %d still %q after forced close", id, st.State)
		}
		if st.State == api.StateFailed {
			t.Fatalf("job %d failed: %s", id, st.Error)
		}
		states[st.State]++
	}
	if closeErr != nil && states[api.StateCanceled] == 0 {
		t.Fatalf("forced close canceled nothing: %v", states)
	}
	waitForGoroutines(t, before)
}

// TestJobRetentionBound: finished jobs beyond RetainJobs are forgotten
// oldest-first, and their status queries report ErrUnknownJob.
func TestJobRetentionBound(t *testing.T) {
	m, err := NewManager(Options{Workers: 1, RetainJobs: 4, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	var ids []int64
	for i := 0; i < 8; i++ {
		st, err := m.Submit(testSpec("mis", "sequential"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		func() {
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				st, err := m.Status(id)
				if errors.Is(err, ErrUnknownJob) {
					return // already evicted; that's fine
				}
				if err != nil {
					t.Fatal(err)
				}
				if st.State == api.StateDone {
					return
				}
				time.Sleep(time.Millisecond)
			}
			t.Fatalf("job %d never finished", id)
		}()
	}
	known := 0
	for _, id := range ids {
		if _, err := m.Status(id); err == nil {
			known++
		}
	}
	if known != 4 {
		t.Fatalf("%d finished jobs retained, want 4", known)
	}
	// The oldest ids must be the forgotten ones.
	if _, err := m.Status(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oldest job still known: %v", err)
	}
	if _, err := m.Status(ids[len(ids)-1]); err != nil {
		t.Fatalf("newest job forgotten: %v", err)
	}
}

// TestManagerRejectsBadOptions covers constructor validation.
func TestManagerRejectsBadOptions(t *testing.T) {
	if _, err := NewManager(Options{Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := NewManager(Options{QueueDepth: -1}); err == nil {
		t.Fatal("negative queue depth accepted")
	}
	if _, err := NewManager(Options{JobSched: "mystery"}); err == nil {
		t.Fatal("unknown job scheduler accepted")
	}
	if _, err := NewManager(Options{JobSchedK: -2}); err == nil {
		t.Fatal("negative job scheduler k accepted")
	}
}

// TestExactJobSchedZeroRankError: with the exact job scheduler every
// dispatch has rank 1 — observed rank error identically zero.
func TestExactJobSchedZeroRankError(t *testing.T) {
	m, err := NewManager(Options{Workers: 1, JobSched: JobSchedExact, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	for i := 0; i < 12; i++ {
		spec := testSpec("mis", "sequential")
		spec.Priority = uint32((i * 37) % 11)
		if _, err := m.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	met := m.Metrics()
	if met.RankError.Count != 12 {
		t.Fatalf("dispatch count = %d, want 12", met.RankError.Count)
	}
	if met.RankError.Mean != 0 || met.RankError.Max != 0 {
		t.Fatalf("exact scheduler observed rank error mean=%v max=%d", met.RankError.Mean, met.RankError.Max)
	}
}

// waitForGoroutines polls until the goroutine count returns to (or below)
// the baseline, tolerating the runtime's own background goroutines.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}
