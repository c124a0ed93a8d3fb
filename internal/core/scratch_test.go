package core

import (
	"sync/atomic"
	"testing"

	"relaxsched/internal/sched"
	"relaxsched/internal/sched/exactheap"
)

// TestScratchCycleDoesNotAllocate pins the pooled buffer set itself: after
// warm-up, a get/use/put cycle at a stable batch size performs zero
// allocations, including emitter traffic (the dynamic contract's Emit and
// the static adapter's Requeue) within the warmed capacity.
func TestScratchCycleDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomly bypasses sync.Pool; alloc counts are not meaningful")
	}
	const batch = 64
	// Warm one scratch to the high-water capacity the loop will need.
	sc := getScratch(batch)
	for i := 0; i < batch; i++ {
		sc.em.Emit(int32(i), uint32(i))
		sc.em.Requeue(int32(i), uint32(i))
	}
	putScratch(sc)
	if allocs := testing.AllocsPerRun(100, func() {
		sc := getScratch(batch)
		sc.em.Worker = 1
		for i := 0; i < batch; i++ {
			sc.buf[i] = sched.Item{Task: int32(i), Priority: uint32(i)}
			sc.em.Emit(int32(i), uint32(i))
			sc.em.Requeue(sc.buf[i].Task, sc.buf[i].Priority)
		}
		putScratch(sc)
	}); allocs > 0 {
		t.Fatalf("warm scratch cycle allocates %.1f per run, want 0", allocs)
	}
}

// TestRunDynamicSteadyStateZeroAllocs runs the full sequential dynamic engine
// back to back, the way sweep harnesses and the job service do, and requires
// the steady state to be allocation-free: the emitter comes from the scratch
// pool and a drained exact heap retains its storage.
func TestRunDynamicSteadyStateZeroAllocs(t *testing.T) {
	const n, p = 32, 7
	heap := exactheap.New(n * 2)
	seeds := countdownSeeds(n, p)
	prob := &countdownProblem{}
	run := func() {
		if _, err := RunDynamic(prob, seeds, heap); err != nil {
			t.Fatal(err)
		}
	}
	if raceEnabled {
		t.Skip("race mode randomly bypasses sync.Pool; alloc counts are not meaningful")
	}
	run() // warm the pools and the heap's storage
	if allocs := testing.AllocsPerRun(50, run); allocs > 0 {
		t.Fatalf("steady-state RunDynamic allocates %.1f per run, want 0", allocs)
	}
}

// workerRecorder records every Emitter.Worker value observed during Expand.
// Pooled emitters migrate between runs with different worker counts, so a
// stale Worker index from a previous run would show up here.
type workerRecorder struct {
	countdownProblem
	seen [64]atomic.Int64
}

func (p *workerRecorder) Expand(task int32, priority uint32, em *Emitter) {
	p.seen[em.Worker].Add(1)
	p.countdownProblem.Expand(task, priority, em)
}

// TestPooledEmitterWorkerIndexReset guards against pooled scratch leaking a
// previous run's worker index: after a 4-worker run has populated the pool, a
// 1-worker run must only ever observe Worker 0, and the sequential engine
// likewise.
func TestPooledEmitterWorkerIndexReset(t *testing.T) {
	const n, p = 64, 5
	wide := &workerRecorder{}
	if _, err := RunDynamicConcurrent(wide, countdownSeeds(n, p), sched.NewLocked(exactheap.New(n)), Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	narrow := &workerRecorder{}
	if _, err := RunDynamicConcurrent(narrow, countdownSeeds(n, p), sched.NewLocked(exactheap.New(n)), Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	for w := 1; w < len(narrow.seen); w++ {
		if c := narrow.seen[w].Load(); c != 0 {
			t.Fatalf("1-worker run observed pooled emitter with stale Worker=%d (%d expansions)", w, c)
		}
	}
	if narrow.seen[0].Load() == 0 {
		t.Fatal("1-worker run recorded no expansions")
	}
	seq := &workerRecorder{}
	if _, err := RunDynamic(seq, countdownSeeds(n, p), exactheap.New(n)); err != nil {
		t.Fatal(err)
	}
	for w := 1; w < len(seq.seen); w++ {
		if c := seq.seen[w].Load(); c != 0 {
			t.Fatalf("sequential run observed pooled emitter with stale Worker=%d (%d expansions)", w, c)
		}
	}
}
