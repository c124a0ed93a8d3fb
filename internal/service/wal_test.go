package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"relaxsched/internal/api"
	"relaxsched/internal/wal"
)

// walManager builds a manager logging to dir with the given extra options.
func walManager(t *testing.T, dir string, opts Options) *Manager {
	t.Helper()
	opts.WALDir = dir
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	m, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManagerWALReplayAfterAbandonedLog simulates a crash by building the
// log directly (as a crashed process would have left it) and booting a
// manager over it: unfinished jobs must re-enter the queue at their
// original priority and run to completion, terminal jobs must come back
// queryable without re-running.
func TestManagerWALReplayAfterAbandonedLog(t *testing.T) {
	dir := t.TempDir()
	w, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("mis", "sequential")
	spec.Priority = 7
	if err := w.AppendAccepted(1, spec); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendAccepted(2, testSpec("pagerank", "relaxed")); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendCompleted(2, wal.OutcomeDone); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendAccepted(3, testSpec("sssp", "sequential")); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendCompleted(3, wal.OutcomeFailed); err != nil {
		t.Fatal(err)
	}
	// No Close: a SIGKILLed process never closes its log. The records are
	// all fsynced, which is exactly the durable state a crash leaves.

	m := walManager(t, dir, Options{})
	defer m.Close(context.Background())

	// Job 1 had no terminal mark: it must replay, run and finish.
	st := waitJob(t, m, 1)
	if st.State != api.StateDone {
		t.Fatalf("replayed job 1 state = %q (err %q), want done", st.State, st.Error)
	}
	if !st.Recovered {
		t.Fatal("replayed job 1 not flagged recovered")
	}
	if st.Spec.Priority != 7 || st.Spec.Workload != "mis" {
		t.Fatalf("replayed job 1 lost its spec: %+v", st.Spec)
	}

	// Jobs 2 and 3 were terminal before the "crash": queryable, not re-run.
	st2, err := m.Status(2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != api.StateDone || !st2.Recovered || st2.Result != nil {
		t.Fatalf("recovered done job 2 = state %q recovered %v result %v", st2.State, st2.Recovered, st2.Result)
	}
	st3, err := m.Status(3)
	if err != nil {
		t.Fatal(err)
	}
	if st3.State != api.StateFailed || !st3.Recovered {
		t.Fatalf("recovered failed job 3 = state %q recovered %v", st3.State, st3.Recovered)
	}

	// Id assignment resumes above the replayed ids.
	st4, err := m.Submit(testSpec("mis", "sequential"))
	if err != nil {
		t.Fatal(err)
	}
	if st4.ID != 4 {
		t.Fatalf("first new id after replay = %d, want 4", st4.ID)
	}
	if w := m.Metrics().WAL; w == nil || w.ReplayedJobs != 1 {
		t.Fatalf("metrics WAL section = %+v, want 1 replayed job", w)
	}
}

// TestManagerWALDrainLeavesNothingToReplay checks the clean-shutdown
// guarantee: after a graceful Close every accepted job is durably
// terminal, so the next boot replays nothing.
func TestManagerWALDrainLeavesNothingToReplay(t *testing.T) {
	dir := t.TempDir()
	m := walManager(t, dir, Options{})
	var ids []int64
	for i := 0; i < 6; i++ {
		st, err := m.Submit(testSpec("mis", "sequential"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitJob(t, m, id)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	m2 := walManager(t, dir, Options{})
	defer m2.Close(context.Background())
	mt := m2.Metrics()
	if mt.WAL == nil || mt.WAL.ReplayedJobs != 0 {
		t.Fatalf("WAL section after clean drain = %+v, want 0 replayed", mt.WAL)
	}
	if mt.Jobs.Queued != 0 || mt.Jobs.Running != 0 {
		t.Fatalf("jobs pending after clean-drain reboot: %+v", mt.Jobs)
	}
	// Each finished job's done mark survived: all still queryable as done.
	for _, id := range ids {
		st, err := m2.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != api.StateDone || !st.Recovered {
			t.Fatalf("job %d after reboot = state %q recovered %v", id, st.State, st.Recovered)
		}
	}
}

// TestManagerWALForcedDrainCancelsDurably checks the forced-drain path:
// jobs still queued when the drain deadline fires are marked canceled in
// the log, so a reboot does not resurrect work the operator discarded.
func TestManagerWALForcedDrainCancelsDurably(t *testing.T) {
	dir := t.TempDir()
	m := walManager(t, dir, Options{startPaused: true})
	var ids []int64
	for i := 0; i < 4; i++ {
		st, err := m.Submit(testSpec("mis", "sequential"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	// No workers: the queue cannot drain, so Close's cleanup loop cancels
	// every still-queued job (the expired context keeps it from waiting).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = m.Close(ctx)

	m2 := walManager(t, dir, Options{})
	defer m2.Close(context.Background())
	if w := m2.Metrics().WAL; w == nil || w.ReplayedJobs != 0 {
		t.Fatalf("replayed after forced drain = %+v, want 0", w)
	}
	for _, id := range ids {
		st, err := m2.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != api.StateCanceled || !st.Recovered {
			t.Fatalf("job %d after forced-drain reboot = state %q recovered %v", id, st.State, st.Recovered)
		}
	}
}

// TestManagerWALForcedDrainSurfacesMarkFailure pins the other half of the
// forced-drain contract: when the log cannot record the cancellations,
// Close must surface the failure and must NOT expose the jobs as canceled
// — leaving them queued matches what the next boot does (replay and run
// them), whereas a visible "canceled" would promise the opposite.
func TestManagerWALForcedDrainSurfacesMarkFailure(t *testing.T) {
	dir := t.TempDir()
	m := walManager(t, dir, Options{startPaused: true})
	var ids []int64
	for i := 0; i < 3; i++ {
		st, err := m.Submit(testSpec("mis", "sequential"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	// Seal the log out from under the manager: every further append fails,
	// which is observationally the poisoned-log state Close must survive.
	if err := m.wlog.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := m.Close(ctx)
	if err == nil || !strings.Contains(err.Error(), "drain cancellations") {
		t.Fatalf("Close error = %v, want surfaced drain-cancellation failure", err)
	}
	for _, id := range ids {
		st, serr := m.Status(id)
		if serr != nil {
			t.Fatal(serr)
		}
		if st.State != api.StateQueued {
			t.Fatalf("job %d state = %q after unrecordable cancel, want queued", id, st.State)
		}
	}
	// The next boot keeps the queued promise: all three replay.
	m2 := walManager(t, dir, Options{})
	defer m2.Close(context.Background())
	if w := m2.Metrics().WAL; w == nil || w.ReplayedJobs != int64(len(ids)) {
		t.Fatalf("WAL after reboot = %+v, want %d replayed", w, len(ids))
	}
}

// TestManagerWALSubmitRacingDrain pins the reserve-pattern edge: a submit
// whose accept record is syncing when the drain begins must be rejected
// with ErrDraining AND durably canceled, so the next boot does not replay
// a job whose submitter was told no.
func TestManagerWALSubmitRacingDrain(t *testing.T) {
	dir := t.TempDir()
	m := walManager(t, dir, Options{startPaused: true})
	// Deterministic interleaving is not available from outside the fsync,
	// so drive the race many times: BeginDrain concurrent with Submit.
	done := make(chan error, 1)
	go func() {
		_, err := m.Submit(testSpec("mis", "sequential"))
		done <- err
	}()
	time.Sleep(time.Millisecond)
	m.BeginDrain()
	err := <-done
	if err != nil && !errors.Is(err, ErrDraining) {
		t.Fatalf("racing submit err = %v, want nil or ErrDraining", err)
	}
	accepted := err == nil
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = m.Close(ctx)

	m2 := walManager(t, dir, Options{startPaused: true})
	replayed := m2.Metrics().WAL.ReplayedJobs
	if accepted && replayed != 0 {
		// The accepted job was still queued at the forced close, which
		// cancels durably — nothing may replay.
		t.Fatalf("accepted-then-canceled job replayed: %d", replayed)
	}
	if !accepted && replayed != 0 {
		t.Fatalf("job rejected with ErrDraining replayed anyway: %d", replayed)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	_ = m2.Close(ctx2)
}

// TestManagerWALConcurrentSubmitters floods the log from concurrent
// submitters and checks the accounting holds up: every accept and every
// terminal mark appended, fsyncs never exceeding appends. (The strict
// batched-below-appends property is pinned deterministically in
// internal/wal, where the sync can be slowed; on a fast filesystem real
// syncs can outrun the submitters here.)
func TestManagerWALConcurrentSubmitters(t *testing.T) {
	dir := t.TempDir()
	m := walManager(t, dir, Options{Workers: 4, QueueDepth: 1024})
	defer m.Close(context.Background())
	const submitters, per = 8, 8
	errs := make(chan error, submitters)
	ids := make(chan int64, submitters*per)
	for g := 0; g < submitters; g++ {
		go func() {
			for i := 0; i < per; i++ {
				st, err := m.Submit(testSpec("mis", "sequential"))
				if err != nil {
					errs <- err
					return
				}
				ids <- st.ID
			}
			errs <- nil
		}()
	}
	for g := 0; g < submitters; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(ids)
	for id := range ids {
		waitJob(t, m, id)
	}
	w := m.Metrics().WAL
	if w == nil {
		t.Fatal("no WAL metrics section")
	}
	// submitters*per accepts + as many terminal marks.
	if want := int64(2 * submitters * per); w.Appends != want {
		t.Fatalf("appends = %d, want %d", w.Appends, want)
	}
	if w.Fsyncs == 0 || w.Fsyncs > w.Appends {
		t.Fatalf("fsyncs = %d with %d appends", w.Fsyncs, w.Appends)
	}
}
