package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/exactheap"
	"relaxsched/internal/sched/faaqueue"
	"relaxsched/internal/sched/multiqueue"
	"relaxsched/internal/sched/topk"
)

// strictProblem checks the adapter's call discipline from the inside: its
// instance tracks which tasks are resolved and records every Process call
// that the Instance contract forbids. Task v depends on v-7 and v-13;
// processing a multiple of 4 kills the task thirteen places on, so Dead, and
// the re-check after Blocked, are exercised.
type strictProblem struct{ n int }

func (p strictProblem) NumTasks() int { return p.n }
func (p strictProblem) NewInstance(State) Instance {
	return &strictInstance{calls: make([]atomic.Int32, p.n), done: make([]atomic.Bool, p.n), dead: make([]atomic.Bool, p.n)}
}

type strictInstance struct {
	calls      []atomic.Int32 // Process calls per task
	done       []atomic.Bool  // set at the end of Process
	dead       []atomic.Bool
	mu         sync.Mutex
	violations []string
}

func (si *strictInstance) resolved(v int) bool {
	return v < 0 || si.done[v].Load() || si.dead[v].Load()
}
func (si *strictInstance) Blocked(v int) bool { return !si.resolved(v-7) || !si.resolved(v-13) }
func (si *strictInstance) Dead(v int) bool    { return si.dead[v].Load() }

func (si *strictInstance) Process(v int) {
	for what, bad := range map[string]bool{
		"Process on a blocked task": si.Blocked(v),
		"Process on a dead task":    si.Dead(v),
		"Process twice on one task": si.calls[v].Add(1) > 1,
	} {
		if bad {
			si.mu.Lock()
			si.violations = append(si.violations, what)
			si.mu.Unlock()
		}
	}
	// Kill before reporting done, as a real instance's Process does before
	// the executor marks the task processed.
	if v%4 == 0 && v+13 < len(si.dead) {
		si.dead[v+13].Store(true)
	}
	si.done[v].Store(true)
}

func TestStaticAdapterCallDiscipline(t *testing.T) {
	const n = 2000
	p := strictProblem{n}
	labels := IdentityLabels(n)
	check := func(name string, res Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		si := res.Instance.(*strictInstance)
		if len(si.violations) > 0 {
			t.Fatalf("%s: %d contract violations, first: %s", name, len(si.violations), si.violations[0])
		}
		var processed, dead int64
		for v := 0; v < n; v++ {
			if si.calls[v].Load() > 0 && si.dead[v].Load() {
				t.Fatalf("%s: task %d both processed and dead", name, v)
			}
			processed += int64(si.calls[v].Load())
			if si.dead[v].Load() {
				dead++
			}
		}
		if res.Processed != processed || res.DeadSkips != dead || processed+dead != n {
			t.Fatalf("%s: Result says %d processed, %d dead; the instance saw %d and %d of %d",
				name, res.Processed, res.DeadSkips, processed, dead, n)
		}
	}

	res, err := RunRelaxed(p, labels, topk.New(16, n, rng.New(3)))
	check("relaxed/topk", res, err)
	if res.FailedDeletes == 0 {
		t.Fatal("relaxed/topk: short-range dependencies under a 16-relaxed scheduler must see failed deletes")
	}
	for _, workers := range []int{1, 4} {
		res, err = RunConcurrent(p, labels, multiqueue.NewConcurrent(4*workers, n, 5), Reinsert, Options{Workers: workers, BatchSize: 8})
		check("concurrent/multiqueue", res, err)
		res, err = RunConcurrent(p, labels, faaqueue.New(n), Wait, Options{Workers: workers, BatchSize: 8})
		check("concurrent/faaqueue-wait", res, err)
	}
}

// dryScheduler hands out the first limit pops and then reports empty, as a
// canceled workload.cancelableScheduler does.
type dryScheduler struct {
	sched.Scheduler
	limit int
}

func (d *dryScheduler) ApproxGetMin() (sched.Item, bool) {
	if d.limit == 0 {
		return sched.Item{}, false
	}
	d.limit--
	return d.Scheduler.ApproxGetMin()
}

// dryConcurrent is the concurrent counterpart: after limit batch pops every
// poll comes back empty, and dried is closed at the first such poll.
type dryConcurrent struct {
	sched.Concurrent
	left  atomic.Int64
	once  sync.Once
	dried chan struct{}
}

func (d *dryConcurrent) ApproxPopBatch(out []sched.Item) int {
	if d.left.Add(-1) < 0 {
		d.once.Do(func() { close(d.dried) })
		return 0
	}
	return d.Concurrent.ApproxPopBatch(out)
}

// TestSchedulerRunningDry pins how an execution ends when the scheduler
// stops delivering with tasks unresolved. In the sequential model that is
// ErrStuck — workload.RunModeContext winds a canceled relaxed run down this
// way. A concurrent scheduler's empty poll proves nothing (another worker
// may hold the last items), so the concurrent engine keeps polling and the
// way out is Cancel, which reports ErrCanceled.
func TestSchedulerRunningDry(t *testing.T) {
	const n = 100
	p := newDepthProblem(n, chainEdges(n))
	labels := IdentityLabels(n)

	_, err := RunRelaxed(p, labels, &dryScheduler{Scheduler: exactheap.New(n), limit: 40})
	if !errors.Is(err, ErrStuck) {
		t.Fatalf("RunRelaxed over a scheduler that ran dry: got %v, want ErrStuck", err)
	}

	cancel := make(chan struct{})
	dry := &dryConcurrent{Concurrent: sched.NewLocked(exactheap.New(n)), dried: make(chan struct{})}
	dry.left.Store(4)
	done := make(chan error, 1)
	go func() {
		_, err := RunConcurrent(p, labels, dry, Reinsert, Options{Workers: 2, BatchSize: 8, Cancel: cancel})
		done <- err
	}()
	<-dry.dried
	close(cancel)
	if err := <-done; !errors.Is(err, ErrCanceled) {
		t.Fatalf("RunConcurrent over a scheduler that ran dry, then canceled: got %v, want ErrCanceled", err)
	}
}

// TestRunRelaxedCountersPinned holds the sequential model's cost accounting
// to the values the pre-adapter RunRelaxed loop produced for the same seeds
// (recorded at commit 177a535): the adapter must drive the scheduler through
// the identical operation sequence.
func TestRunRelaxedCountersPinned(t *testing.T) {
	const n = 2000
	r := rng.New(1234)
	adj := randomDepthProblem(n, 8000, r).adj
	labels := RandomLabels(n, r)
	type counters struct{ iterations, processed, deadSkips, failedDeletes int64 }
	for _, tc := range []struct {
		name string
		p    Problem
		s    sched.Scheduler
		want counters
	}{
		{"depth/exact", &depthProblem{n: n, adj: adj}, exactheap.New(n), counters{2000, 2000, 0, 0}},
		{"depth/mq8", &depthProblem{n: n, adj: adj}, multiqueue.NewSequential(8, n, rng.New(99)), counters{2060, 2000, 0, 60}},
		{"depth/mq64", &depthProblem{n: n, adj: adj}, multiqueue.NewSequential(64, n, rng.New(7)), counters{3080, 2000, 0, 1080}},
		{"killer/exact", &killerProblem{n: n, adj: adj}, exactheap.New(n), counters{2000, 551, 1449, 0}},
		{"killer/mq8", &killerProblem{n: n, adj: adj}, multiqueue.NewSequential(8, n, rng.New(99)), counters{2011, 551, 1449, 11}},
		{"killer/mq64", &killerProblem{n: n, adj: adj}, multiqueue.NewSequential(64, n, rng.New(7)), counters{2095, 551, 1449, 95}},
	} {
		res, err := RunRelaxed(tc.p, labels, tc.s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := counters{res.Iterations, res.Processed, res.DeadSkips, res.FailedDeletes}
		if got != tc.want || res.ExtraIterations() != tc.want.failedDeletes {
			t.Fatalf("%s: counters %+v (extra %d), want %+v", tc.name, got, res.ExtraIterations(), tc.want)
		}
	}
}
