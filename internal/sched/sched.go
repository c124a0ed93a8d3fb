// Package sched defines the scheduler abstraction at the heart of the paper:
// a priority scheduler holding ⟨task, priority⟩ pairs that supports Insert,
// ApproxGetMin and Empty, where ApproxGetMin may return tasks out of priority
// order ("relaxed" semantics).
//
// The paper models relaxation with two exponential tail bounds (Definition 1):
// a rank bound — Pr[rank(t) ≥ ℓ] ≤ exp(-ℓ/k) — and a fairness bound —
// Pr[inv(u) ≥ ℓ] ≤ exp(-ℓ/φ). Sub-packages provide the concrete schedulers
// the paper discusses: an exact heap (k = 1), the canonical
// uniform-top-k queue, the MultiQueue, the SprayList, a deterministic
// k-bounded queue, and a fetch-and-add FIFO used as the exact concurrent
// baseline. This package also provides Instrumented, a wrapper that measures
// empirical rank error and priority inversions so tests can check the model's
// tail bounds, and Locked, an adapter that makes any sequential scheduler
// safe for concurrent use.
package sched

// Item is a ⟨task, priority⟩ pair held by a scheduler. Lower Priority values
// are "better": an exact scheduler always returns the live item with the
// smallest Priority. Task is an opaque id (typically a vertex index).
type Item struct {
	Task     int32
	Priority uint32
}

// Less reports whether i has strictly higher scheduling priority than o
// (i.e. a smaller Priority value, ties broken by Task id so orderings are
// total and deterministic).
func (i Item) Less(o Item) bool {
	if i.Priority != o.Priority {
		return i.Priority < o.Priority
	}
	return i.Task < o.Task
}

// Key packs the item into one uint64 whose unsigned integer order is exactly
// Less: priority in the high half, and in the low half the task id with its
// sign bit flipped, so negative ids sort before non-negative ones as they do
// under the signed comparison in Less. Heap-backed schedulers store keys
// instead of items (a compare is one instruction) and the MultiQueue
// publishes a sub-queue's minimum key as its lock-free hint.
func (i Item) Key() uint64 {
	return uint64(i.Priority)<<32 | uint64(uint32(i.Task)^(1<<31))
}

// ItemOfKey is the inverse of Item.Key.
func ItemOfKey(k uint64) Item {
	return Item{Task: int32(uint32(k) ^ (1 << 31)), Priority: uint32(k >> 32)}
}

// Scheduler is the sequential-model interface of a (possibly relaxed)
// priority scheduler. Implementations need not be safe for concurrent use;
// wrap them in Locked or use a Concurrent implementation for multi-threaded
// executions.
type Scheduler interface {
	// Insert adds an item to the scheduler.
	Insert(Item)
	// ApproxGetMin removes and returns an item. An exact scheduler returns
	// the minimum-priority item; a k-relaxed scheduler may return an item of
	// rank up to ~k. The second result is false if the scheduler is empty.
	ApproxGetMin() (Item, bool)
	// Len returns the number of items currently held.
	Len() int
	// Empty reports whether the scheduler holds no items.
	Empty() bool
}

// Concurrent is the interface of schedulers that are safe for concurrent use
// by multiple goroutines. A false result from ApproxGetMin (or a zero count
// from ApproxPopBatch) means "nothing found right now" and is not a reliable
// emptiness signal under concurrency; executors track outstanding work
// independently.
//
// The batch operations exist so executors can amortize one synchronization
// episode (a lock acquisition, a fetch-and-add) over many items. Batching
// relaxes further: a scheduler whose single-item removals satisfy a rank
// bound of k serves batch removals with rank at most k + B, which still fits
// the paper's (k, φ)-relaxed model with a larger constant. Implementations
// without a native batch path can be adapted with WithDefaultBatch.
type Concurrent interface {
	Insert(Item)
	ApproxGetMin() (Item, bool)
	// InsertBatch adds every item in items. Implementations should perform
	// the insertion under a single synchronization episode where possible.
	// The slice is not retained.
	InsertBatch(items []Item)
	// ApproxPopBatch removes up to len(out) items, stores them in out, and
	// returns how many were removed. A zero result means "nothing found
	// right now", with the same caveat as ApproxGetMin.
	ApproxPopBatch(out []Item) int
}

// PerWorker is an optional extension of Concurrent implemented by schedulers
// that keep worker-affine state — home sub-queue shards, private random
// streams, steal paths. An executor that knows its worker index acquires a
// handle once at worker start and issues that worker's scheduler operations
// through it; the handle is a view of the shared scheduler (items inserted
// through one handle are poppable through any other and through the parent),
// but the handle itself is NOT safe for concurrent use — one handle per
// worker. Operations on the parent scheduler remain valid and thread-safe
// alongside handle use; executors use the parent for cross-worker work such
// as seeding.
type PerWorker interface {
	Concurrent
	// WorkerHandle returns worker's affine view of the scheduler, given the
	// total worker count of the execution. Implementations must accept any
	// worker in [0, workers) and clamp degenerate arguments rather than
	// panic.
	WorkerHandle(worker, workers int) Concurrent
}

// ForWorker returns the worker-affine handle of s when s implements
// PerWorker, and s itself otherwise — the zero-cost adapter executors call
// at worker start. A handle is only safe for use by its one worker.
func ForWorker(s Concurrent, worker, workers int) Concurrent {
	if pw, ok := s.(PerWorker); ok {
		return pw.WorkerHandle(worker, workers)
	}
	return s
}

// Single is the minimal single-item concurrent scheduler interface — what
// Concurrent looked like before batch operations existed. It is the input to
// WithDefaultBatch and a convenient target for test doubles.
type Single interface {
	Insert(Item)
	ApproxGetMin() (Item, bool)
}

// Batcher is the interface of sequential-model schedulers that additionally
// provide native batch operations, so a Locked wrapper can amortize its one
// lock acquisition over a whole batch without per-item virtual calls.
type Batcher interface {
	Scheduler
	InsertBatch(items []Item)
	ApproxPopBatch(out []Item) int
}

// batchAdapter implements the batch half of Concurrent by looping over the
// single-item operations. It provides no amortization; it exists so that any
// Single scheduler can be used where a Concurrent is required.
type batchAdapter struct {
	Single
}

func (a batchAdapter) InsertBatch(items []Item) {
	for _, it := range items {
		a.Insert(it)
	}
}

func (a batchAdapter) ApproxPopBatch(out []Item) int {
	n := 0
	for n < len(out) {
		it, ok := a.ApproxGetMin()
		if !ok {
			break
		}
		out[n] = it
		n++
	}
	return n
}

// WithDefaultBatch adapts a single-item concurrent scheduler to the full
// Concurrent interface using loop-based batch operations. Schedulers that
// already implement Concurrent are returned unchanged.
func WithDefaultBatch(s Single) Concurrent {
	if c, ok := s.(Concurrent); ok {
		return c
	}
	return batchAdapter{Single: s}
}

// Factory constructs a fresh sequential-model scheduler sized for
// approximately capacity items. The simulation harness uses factories so a
// single experiment definition can sweep scheduler families and relaxation
// parameters.
type Factory func(capacity int) Scheduler
