package service

import (
	"context"
	"testing"
	"time"

	"relaxsched/internal/api"
)

// autoTestManager builds a paused auto-mode manager whose control loop is
// not running, so tests drive controlStep by hand against scripted queue
// state — the deterministic complement to the integration e2e.
func autoTestManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	opts.JobSched = JobSchedAuto
	opts.startPaused = true
	m, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return m
}

// TestAutoControlStepTrajectory scripts one full widen/tighten cycle through
// the manager (not the bare controller): a full queue widens k and batch
// step by step up to the depth-capped maximum, then an injected rank-error
// window halves both, retuning the live queue and the shared batch target.
func TestAutoControlStepTrajectory(t *testing.T) {
	// P99SLO is huge so queue-depth is the only widen signal; RankSLO 2 so a
	// scripted window mean of 5 breaches it.
	m := autoTestManager(t, Options{
		Workers: 1, QueueDepth: 4,
		RankSLO: 2, P99SLO: time.Hour, ControlInterval: time.Hour,
	})

	if got := m.autoQueue.K(); got != 1 {
		t.Fatalf("initial k = %d, want 1 (start exact)", got)
	}
	if got := m.tunable.Batch(); got != 1 {
		t.Fatalf("initial batch = %d, want 1", got)
	}

	// Fill the queue to its bound: depth/capacity = 1 ≥ the high-water mark.
	spec := testSpec("mis", "sequential")
	for i := 0; i < 4; i++ {
		if _, err := m.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}

	// MaxK is capped at the queue depth (4): three widens saturate k, and
	// batch keeps climbing by the default step of 8 until its own cap.
	wantK := []int{2, 3, 4, 4}
	wantBatch := []int{9, 17, 25, 33}
	for i, k := range wantK {
		m.controlStep()
		if got := m.autoQueue.K(); got != k {
			t.Fatalf("step %d: queue k = %d, want %d", i+1, got, k)
		}
		if got := m.tunable.Batch(); got != wantBatch[i] {
			t.Fatalf("step %d: batch = %d, want %d", i+1, got, wantBatch[i])
		}
	}

	mm := m.Metrics()
	c := mm.Controller
	if c == nil || c.K != 4 || c.Batch != 33 || c.Widened != 4 || c.Steps != 4 {
		t.Fatalf("controller metrics after widening = %+v", c)
	}
	if mm.JobSched != JobSchedAuto || mm.JobSchedK != 0 {
		t.Fatalf("auto metrics identity: sched=%q k=%d, want auto/0", mm.JobSched, mm.JobSchedK)
	}
	if c.RankSLO != 2 || c.P99SLOMs != float64(time.Hour.Milliseconds()) {
		t.Fatalf("SLO echo = %+v", c)
	}

	// Inject a dispatch window with mean rank error 5 (> SLO 2). The queue
	// is still full, so both signals fire — and the rank breach must win:
	// multiplicative tighten on both knobs.
	m.mu.Lock()
	m.rank.Count += 10
	m.rank.Sum += 50
	m.mu.Unlock()
	m.controlStep()
	if got := m.autoQueue.K(); got != 2 {
		t.Fatalf("k after rank breach = %d, want 2 (halved)", got)
	}
	if got := m.tunable.Batch(); got != 16 {
		t.Fatalf("batch after rank breach = %d, want 16 (halved)", got)
	}
	c = m.Metrics().Controller
	if c.Tightened != 1 || c.RankViolations != 1 {
		t.Fatalf("tighten accounting = %+v", c)
	}

	// The injected window was consumed: with no new dispatches the next
	// step sees no rank signal, and the still-full queue widens again.
	m.controlStep()
	if got := m.autoQueue.K(); got != 3 {
		t.Fatalf("k after recovery step = %d, want 3", got)
	}
}

// TestAutoIdleWindowsDoNotWiden: the p99 the controller judges covers only
// the dispatches of its own window. One slow dispatch breaches the SLO in
// the window that saw it; the idle windows after it carry no samples and
// must neither count a violation nor widen k.
func TestAutoIdleWindowsDoNotWiden(t *testing.T) {
	m := autoTestManager(t, Options{
		Workers: 1, QueueDepth: 16,
		P99SLO: 10 * time.Millisecond, ControlInterval: time.Hour,
	})
	st, err := m.Submit(testSpec("mis", "sequential"))
	if err != nil {
		t.Fatal(err)
	}
	// Backdate the submission so its dispatch records a 2 s queue wait,
	// then let one worker dispatch and run it.
	m.mu.Lock()
	m.jobs[st.ID].submitted = time.Now().Add(-2 * time.Second)
	m.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.worker()
	}()
	if got := waitJob(t, m, st.ID); got.State != api.StateDone {
		t.Fatalf("job ended %s: %s", got.State, got.Error)
	}

	m.controlStep()
	slow := m.ctrl.Status()
	if slow.P99Violations != 1 || slow.Widened != 1 {
		t.Fatalf("window with the slow dispatch: %+v, want one violation and one widen", slow)
	}
	for i := 0; i < 5; i++ {
		m.controlStep()
	}
	idle := m.ctrl.Status()
	if idle.P99Violations != slow.P99Violations || idle.Widened != slow.Widened || idle.K != slow.K || idle.Batch != slow.Batch {
		t.Fatalf("idle windows re-judged an old sample: after the slow window %+v, after 5 idle windows %+v", slow, idle)
	}
}

// TestAutoManagerRunsAndStops: an unpaused auto manager executes real jobs
// (its control loop live), reports a controller section over Metrics, and
// Close stops the loop before the workers without deadlocking.
func TestAutoManagerRunsAndStops(t *testing.T) {
	m, err := NewManager(Options{
		Workers: 2, QueueDepth: 16, JobSched: JobSchedAuto,
		ControlInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("mis", "concurrent")
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		got, err := m.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == api.StateDone {
			break
		}
		if got.State == api.StateFailed || got.State == api.StateCanceled {
			t.Fatalf("job ended %s: %s", got.State, got.Error)
		}
		time.Sleep(time.Millisecond)
	}
	// Let the ticking loop take a few real steps before shutdown.
	time.Sleep(10 * time.Millisecond)
	if c := m.Metrics().Controller; c == nil || c.Steps == 0 {
		t.Fatalf("live control loop took no steps: %+v", c)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent, including the control-loop stop.
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestStaticSchedulersHaveNoController: non-auto managers carry no tunable,
// no auto queue, and no controller section in Metrics.
func TestStaticSchedulersHaveNoController(t *testing.T) {
	for _, js := range []string{JobSchedExact, JobSchedMultiQueue, JobSchedKBounded, JobSchedFIFO} {
		m, err := NewManager(Options{Workers: 1, QueueDepth: 4, JobSched: js, startPaused: true})
		if err != nil {
			t.Fatal(err)
		}
		mm := m.Metrics()
		if mm.Controller != nil {
			t.Fatalf("%s: unexpected controller section %+v", js, mm.Controller)
		}
		if mm.JobSchedK == 0 {
			t.Fatalf("%s: static JobSchedK suppressed", js)
		}
		if m.tunable != nil || m.autoQueue != nil || m.ctrl != nil {
			t.Fatalf("%s: adaptive machinery built for a static scheduler", js)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		m.Close(ctx)
		cancel()
	}
}
