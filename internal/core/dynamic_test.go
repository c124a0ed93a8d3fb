package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/exactheap"
	"relaxsched/internal/sched/faaqueue"
	"relaxsched/internal/sched/kbounded"
	"relaxsched/internal/sched/multiqueue"
)

// countdownProblem is a deterministic dynamic workload for engine tests:
// every item (task, p) with p > 0 emits (task, p-1), so a seed at priority p
// resolves after exactly p+1 deliveries and the execution performs
// seeds + sum(p_i) pops in total. Counters are atomic so the same problem
// drives the concurrent engine.
type countdownProblem struct {
	expanded atomic.Int64
}

func (p *countdownProblem) Stale(task int32, priority uint32) bool { return false }

func (p *countdownProblem) Expand(task int32, priority uint32, em *Emitter) {
	p.expanded.Add(1)
	if priority > 0 {
		em.Emit(task, priority-1)
	}
}

func (p *countdownProblem) Done() bool { return false }

func countdownSeeds(n int, priority uint32) []sched.Item {
	seeds := make([]sched.Item, n)
	for i := range seeds {
		seeds[i] = sched.Item{Task: int32(i), Priority: priority}
	}
	return seeds
}

func TestRunDynamicCountdownAccounting(t *testing.T) {
	const n, p = 50, 7
	schedulers := map[string]sched.Scheduler{
		"exactheap":   exactheap.New(n),
		"multiqueue8": multiqueue.NewSequential(8, n, rng.New(2)),
		"kbounded4":   kbounded.New(4, n),
	}
	for name, s := range schedulers {
		prob := &countdownProblem{}
		st, err := RunDynamic(prob, countdownSeeds(n, p), s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantPops := int64(n * (p + 1))
		if st.Pops != wantPops {
			t.Fatalf("%s: Pops = %d, want %d", name, st.Pops, wantPops)
		}
		if st.Emitted != wantPops-n {
			t.Fatalf("%s: Emitted = %d, want %d", name, st.Emitted, wantPops-n)
		}
		if st.StalePops != 0 {
			t.Fatalf("%s: StalePops = %d, want 0", name, st.StalePops)
		}
		if got := prob.expanded.Load(); got != wantPops {
			t.Fatalf("%s: expanded %d items, want %d", name, got, wantPops)
		}
	}
}

func TestRunDynamicConcurrentCountdownAcrossSchedulers(t *testing.T) {
	const n, p = 200, 9
	wantPops := int64(n * (p + 1))
	factories := map[string]func() sched.Concurrent{
		"multiqueue":      func() sched.Concurrent { return multiqueue.NewConcurrent(8, n, 3) },
		"faaqueue":        func() sched.Concurrent { return faaqueue.New(n) },
		"locked-kbounded": func() sched.Concurrent { return sched.NewLocked(kbounded.New(4, n)) },
	}
	for name, factory := range factories {
		for _, workers := range []int{1, 2, 4} {
			for _, batch := range []int{1, 3, 0} {
				prob := &countdownProblem{}
				res, err := RunDynamicConcurrent(prob, countdownSeeds(n, p), factory(), Options{
					Workers:   workers,
					BatchSize: batch,
				})
				if err != nil {
					t.Fatalf("%s workers=%d batch=%d: %v", name, workers, batch, err)
				}
				if res.Pops != wantPops || res.Emitted != wantPops-n {
					t.Fatalf("%s workers=%d batch=%d: stats %+v, want %d pops",
						name, workers, batch, res, wantPops)
				}
				if got := prob.expanded.Load(); got != wantPops {
					t.Fatalf("%s workers=%d batch=%d: expanded %d, want %d", name, workers, batch, got, wantPops)
				}
			}
		}
	}
}

// onceProblem marks tasks done on first expansion and reports re-deliveries
// as stale — the engine must route them to StalePops.
type onceProblem struct {
	done []atomic.Bool
}

func (p *onceProblem) Stale(task int32, priority uint32) bool {
	return !p.done[task].CompareAndSwap(false, true)
}

func (p *onceProblem) Expand(task int32, priority uint32, em *Emitter) {}

func (p *onceProblem) Done() bool { return false }

func TestDynamicStalePopsCounted(t *testing.T) {
	const n = 40
	// Seed every task twice: the second delivery of each must be stale.
	seeds := append(countdownSeeds(n, 5), countdownSeeds(n, 6)...)

	prob := &onceProblem{done: make([]atomic.Bool, n)}
	st, err := RunDynamic(prob, seeds, exactheap.New(n))
	if err != nil {
		t.Fatal(err)
	}
	if st.Pops != 2*n || st.StalePops != n {
		t.Fatalf("sequential stats %+v, want %d pops with %d stale", st, 2*n, n)
	}

	prob = &onceProblem{done: make([]atomic.Bool, n)}
	res, err := RunDynamicConcurrent(prob, seeds, multiqueue.NewConcurrent(4, n, 7), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pops != 2*n || res.StalePops != n {
		t.Fatalf("concurrent stats %+v, want %d pops with %d stale", res, 2*n, n)
	}
}

// haltingProblem stops the execution via Done after a fixed number of
// expansions, leaving items in the scheduler.
type haltingProblem struct {
	countdownProblem
	limit int64
}

func (p *haltingProblem) Done() bool { return p.expanded.Load() >= p.limit }

func TestDynamicDoneStopsEarly(t *testing.T) {
	prob := &haltingProblem{limit: 5}
	st, err := RunDynamic(prob, countdownSeeds(100, 50), exactheap.New(100))
	if err != nil {
		t.Fatal(err)
	}
	if st.Pops >= 100*51 {
		t.Fatalf("Done did not stop the execution early: %+v", st)
	}

	prob = &haltingProblem{limit: 5}
	res, err := RunDynamicConcurrent(prob, countdownSeeds(100, 50), multiqueue.NewConcurrent(8, 100, 1), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pops >= 100*51 {
		t.Fatalf("concurrent Done did not stop the execution early: %+v", res)
	}
}

func TestDynamicValidation(t *testing.T) {
	prob := &countdownProblem{}
	seeds := countdownSeeds(4, 1)
	if _, err := RunDynamic(nil, seeds, exactheap.New(4)); !errors.Is(err, ErrNilProblem) {
		t.Fatalf("nil problem: err = %v", err)
	}
	if _, err := RunDynamic(prob, seeds, nil); !errors.Is(err, ErrNilScheduler) {
		t.Fatalf("nil scheduler: err = %v", err)
	}
	if _, err := RunDynamicConcurrent(nil, seeds, faaqueue.New(4), Options{Workers: 1}); !errors.Is(err, ErrNilProblem) {
		t.Fatalf("nil problem: err = %v", err)
	}
	if _, err := RunDynamicConcurrent(prob, seeds, nil, Options{Workers: 1}); !errors.Is(err, ErrNilScheduler) {
		t.Fatalf("nil scheduler: err = %v", err)
	}
	if _, err := RunDynamicConcurrent(prob, seeds, faaqueue.New(4), Options{Workers: 0}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("zero workers: err = %v", err)
	}
	if _, err := RunDynamicConcurrent(prob, seeds, faaqueue.New(4), Options{Workers: 1, BatchSize: -1}); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("negative batch: err = %v", err)
	}
}

func TestDynamicEmptySeeds(t *testing.T) {
	st, err := RunDynamic(&countdownProblem{}, nil, exactheap.New(1))
	if err != nil || st.Pops != 0 {
		t.Fatalf("empty sequential run: %+v, %v", st, err)
	}
	res, err := RunDynamicConcurrent(&countdownProblem{}, nil, faaqueue.New(1), Options{Workers: 4})
	if err != nil || res.Pops != 0 {
		t.Fatalf("empty concurrent run: %+v, %v", res, err)
	}
}

func TestEmitterReset(t *testing.T) {
	em := &Emitter{}
	em.Emit(1, 2)
	em.Emit(3, 4)
	if len(em.items) != 2 || em.items[1] != (sched.Item{Task: 3, Priority: 4}) {
		t.Fatalf("unexpected emitter contents %v", em.items)
	}
	em.Reset()
	if len(em.items) != 0 {
		t.Fatalf("%d items after Reset", len(em.items))
	}
}
