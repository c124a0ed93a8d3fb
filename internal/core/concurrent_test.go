package core

import (
	"errors"
	"testing"

	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/faaqueue"
	"relaxsched/internal/sched/kbounded"
	"relaxsched/internal/sched/multiqueue"
)

func TestRunConcurrentBatchSizeOneMatchesSequential(t *testing.T) {
	// BatchSize 1 reproduces the single-item delivery discipline: every
	// scheduler acquisition delivers at most one task. The output must equal
	// the sequential one and the counter identities must hold exactly as in
	// the unbatched executor.
	r := rng.New(71)
	p := randomDepthProblem(1500, 6000, r)
	labels := RandomLabels(1500, r)
	seqRes, err := RunSequential(p, labels)
	if err != nil {
		t.Fatal(err)
	}
	want := seqRes.Instance.(*depthInstance).depth

	for _, workers := range []int{1, 4} {
		mq := multiqueue.NewConcurrent(4*workers, 1500, uint64(workers))
		res, err := RunConcurrent(p, labels, mq, Reinsert, Options{Workers: workers, BatchSize: 1})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := res.Instance.(*depthInstance).depth
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("workers=%d batch=1: depth[%d] = %d, want %d", workers, v, got[v], want[v])
			}
		}
		if res.Processed != 1500 {
			t.Fatalf("workers=%d batch=1: processed %d", workers, res.Processed)
		}
		if res.Iterations != res.Processed+res.DeadSkips+res.FailedDeletes {
			t.Fatalf("workers=%d batch=1: iteration accounting inconsistent: %+v", workers, res)
		}
	}
}

func TestRunConcurrentBatchSizeSweepDeterministic(t *testing.T) {
	// Every batch size — including ones larger than the task count — must
	// produce the sequential output, for both a plain dependency problem and
	// one exercising the Dead shortcut.
	r := rng.New(73)
	const n = 1200
	p := &killerProblem{n: n, adj: randomDepthProblem(n, 5000, r).adj}
	labels := RandomLabels(n, r)
	seqRes, err := RunSequential(p, labels)
	if err != nil {
		t.Fatal(err)
	}
	want := seqRes.Instance.(*killerInstance).selection()

	for _, batch := range []int{1, 2, 3, DefaultBatchSize, 64, 2 * n} {
		mq := multiqueue.NewConcurrent(16, n, uint64(batch))
		res, err := RunConcurrent(p, labels, mq, Reinsert, Options{Workers: 4, BatchSize: batch})
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		got := res.Instance.(*killerInstance).selection()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("batch=%d: selected[%d] = %v, want %v", batch, v, got[v], want[v])
			}
		}
		if res.Processed+res.DeadSkips != n {
			t.Fatalf("batch=%d: processed+skips = %d, want %d", batch, res.Processed+res.DeadSkips, n)
		}
	}
}

func TestRunConcurrentWaitPolicyUnderContention(t *testing.T) {
	// The Wait policy on an exact FIFO with a long dependency chain forces
	// real predecessor waiting: vertex i+1 is dispensed while vertex i is
	// frequently still unprocessed on another worker. Run with enough
	// workers that waiting and the bounded-spin fallback both occur; the
	// race detector watches the Blocked/Process interplay.
	const n = 3000
	p := newDepthProblem(n, chainEdges(n))
	labels := IdentityLabels(n)

	for _, batch := range []int{1, DefaultBatchSize} {
		q := faaqueue.New(n)
		res, err := RunConcurrent(p, labels, q, Wait, Options{Workers: 6, BatchSize: batch})
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		depths := res.Instance.(*depthInstance).depth
		for i, d := range depths {
			if d != int32(i) {
				t.Fatalf("batch=%d: depth[%d] = %d, want %d", batch, i, d, i)
			}
		}
		if res.Processed != n {
			t.Fatalf("batch=%d: processed %d", batch, res.Processed)
		}
	}
}

func TestRunConcurrentRejectsNegativeBatch(t *testing.T) {
	p := newDepthProblem(2, nil)
	mq := multiqueue.NewConcurrent(2, 2, 1)
	_, err := RunConcurrent(p, IdentityLabels(2), mq, Reinsert, Options{Workers: 1, BatchSize: -1})
	if !errors.Is(err, ErrBadBatch) {
		t.Fatalf("expected ErrBadBatch, got %v", err)
	}
}

func TestRunConcurrentLockedBatcherScheduler(t *testing.T) {
	// The coarse-locked deterministic k-bounded queue exercises the
	// sched.Batcher fast path inside Locked: one lock acquisition per batch.
	r := rng.New(77)
	p := randomDepthProblem(900, 3600, r)
	labels := RandomLabels(900, r)
	seqRes, err := RunSequential(p, labels)
	if err != nil {
		t.Fatal(err)
	}
	want := seqRes.Instance.(*depthInstance).depth

	s := sched.NewLocked(kbounded.New(16, 900))
	res, err := RunConcurrent(p, labels, s, Reinsert, Options{Workers: 4, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Instance.(*depthInstance).depth
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestRunConcurrentEmptyPollsAccountedWithBackoff(t *testing.T) {
	// With far more workers than tasks, most workers find the scheduler
	// empty, back off, and exit through the termination check. EmptyPolls
	// must record those polls (the backoff must not bypass accounting), and
	// the execution must terminate promptly despite sleeping workers.
	const n = 4
	p := newDepthProblem(n, chainEdges(n))
	labels := IdentityLabels(n)
	mq := multiqueue.NewConcurrent(4, n, 9)
	res, err := RunConcurrent(p, labels, mq, Reinsert, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != n {
		t.Fatalf("processed %d, want %d", res.Processed, n)
	}
	if res.EmptyPolls == 0 {
		t.Fatal("expected nonzero EmptyPolls with 8 workers and 4 tasks")
	}
}

func TestSortBatch(t *testing.T) {
	items := []sched.Item{
		{Task: 3, Priority: 9},
		{Task: 1, Priority: 2},
		{Task: 2, Priority: 2},
		{Task: 0, Priority: 0},
	}
	sortBatch(items)
	for i := 1; i < len(items); i++ {
		if items[i].Less(items[i-1]) {
			t.Fatalf("batch not sorted at %d: %v", i, items)
		}
	}
	if items[0].Task != 0 || items[1].Task != 1 || items[2].Task != 2 || items[3].Task != 3 {
		t.Fatalf("unexpected order: %v", items)
	}
	sortBatch(nil) // must not panic
}

func TestIdleBackoffEscalates(t *testing.T) {
	// The backoff never panics, spins first, and resets cleanly. (The
	// sleeping tier is exercised implicitly by every drain in the suite; its
	// durations are capped, so calling it a few times stays fast.)
	var b idleBackoff
	for i := 0; i < backoffYieldLimit+3; i++ {
		b.wait()
	}
	if b.idle != backoffYieldLimit+3 {
		t.Fatalf("idle counter = %d", b.idle)
	}
	b.reset()
	if b.idle != 0 {
		t.Fatal("reset did not clear the idle counter")
	}
}
