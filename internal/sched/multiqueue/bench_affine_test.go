package multiqueue

import (
	"sync/atomic"
	"testing"

	"relaxsched/internal/sched"
)

// BenchmarkWorkerHandleBatchCycle times the executor-shaped hot path through
// a worker-affine handle: one batch insert followed by batch pops until the
// batch is drained — the per-episode scheduler traffic of a single engine
// worker. This is a gated benchmark in scripts/benchdiff.sh; the handle path
// must stay allocation-free (see TestWorkerHandleOpsDoNotAllocate).
func BenchmarkWorkerHandleBatchCycle(b *testing.B) {
	m := NewConcurrent(16, 4096, 1)
	h := m.WorkerHandle(0, 4)
	items := make([]sched.Item, 16)
	for i := range items {
		items[i] = sched.Item{Task: int32(i), Priority: uint32(i)}
	}
	out := make([]sched.Item, 16)
	h.InsertBatch(items)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.InsertBatch(items)
		for drained := 0; drained < len(items); {
			n := h.ApproxPopBatch(out)
			if n == 0 {
				b.Fatal("lost items")
			}
			drained += n
		}
	}
}

// BenchmarkWorkerHandleInsertDelete is the worker-affine counterpart of
// BenchmarkConcurrentInsertDelete: every goroutine churns through its own
// handle, so inserts and pops stay on home shards and the rng pool is never
// touched.
func BenchmarkWorkerHandleInsertDelete(b *testing.B) {
	m := NewConcurrent(16, 1024, 1)
	for i := 0; i < 1024; i++ {
		m.Insert(sched.Item{Task: int32(i), Priority: uint32(i)})
	}
	var nextWorker atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		h := m.WorkerHandle(int(nextWorker.Add(1)-1), 4)
		for pb.Next() {
			if it, ok := h.ApproxGetMin(); ok {
				h.Insert(it)
			}
		}
	})
}

// BenchmarkWorkerHandlePreloadDrain is the static framework's scheduler
// traffic at the occupancy the executors run at: n items in label order
// batch-inserted through a worker handle (core seeds the n tasks that way),
// then batch-popped until the MultiQueue is empty — about 32 768 items per
// sub-queue, where the churn benchmarks above hold 64. One operation is one
// item inserted and popped.
func BenchmarkWorkerHandlePreloadDrain(b *testing.B) {
	const n, batch = 1 << 18, 64
	m := NewConcurrent(8, n, 1)
	h := m.WorkerHandle(0, 2)
	items := ascendingItems(n)
	out := make([]sched.Item, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += n {
		for lo := 0; lo < n; lo += batch {
			h.InsertBatch(items[lo : lo+batch])
		}
		for drained := 0; drained < n; {
			got := h.ApproxPopBatch(out)
			if got == 0 {
				b.Fatal("lost items")
			}
			drained += got
		}
	}
}
