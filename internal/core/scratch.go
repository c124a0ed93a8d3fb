package core

import (
	"sync"

	"relaxsched/internal/sched"
)

// Every engine worker needs the same small buffer set: a pop buffer sized to
// the batch and an emitter, and nothing else. Allocating them fresh per
// worker per run is invisible for one long execution but is measurable churn
// for callers that run many executions back to back — benchmark trial loops
// and the relaxd worker pool both re-enter the engine at high rate. The
// buffers hold only sched.Item values (no pointers), so pooling them across
// runs is safe and keeps steady-state executions allocation-free: after
// warm-up a run reuses a previous run's buffers at their high-water
// capacity. scratch_test.go pins the zero-alloc property for both contracts.

// workerScratch is one engine worker's pooled buffer set. The sequential
// engine borrows one too, for its emitter.
type workerScratch struct {
	// buf is the pop buffer; its length is the worker's current batch size.
	buf []sched.Item
	// em is the emitter; its storage capacity is retained across runs.
	em Emitter
}

var scratchPool = sync.Pool{New: func() any { return new(workerScratch) }}

// getScratch returns a worker scratch whose pop buffer has length batch and
// whose emitter is empty, at worker index 0 with no requeues counted.
// Buffers retain the capacity they reached in previous runs.
func getScratch(batch int) *workerScratch {
	sc := scratchPool.Get().(*workerScratch)
	if cap(sc.buf) < batch {
		sc.buf = make([]sched.Item, batch)
	}
	sc.buf = sc.buf[:batch]
	return sc
}

// putScratch returns a scratch to the pool. The caller must be done with
// every slice that aliases it (including the emitter's storage).
func putScratch(sc *workerScratch) {
	sc.em = Emitter{items: sc.em.items[:0]}
	scratchPool.Put(sc)
}
