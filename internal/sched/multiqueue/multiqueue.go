// Package multiqueue implements the MultiQueue relaxed priority scheduler of
// Rihani, Sanders and Dementiev (SPAA'15), the scheduler the paper's
// implementation and experiments are built on.
//
// A MultiQueue keeps c independent priority queues. Insert pushes into a
// uniformly random queue; ApproxGetMin samples two distinct random queues and
// pops from the one whose minimum is smaller ("power of two choices").
// Alistarh et al. (PODC'17, reference [2] of the paper) show this yields
// exponential tail bounds on rank and fairness with k = O(c) and
// φ = O(c log c), which is exactly the (k, φ)-relaxed scheduler model this
// library's framework assumes.
//
// Two variants are provided: Sequential, the analytical model used by the
// simulations, and Concurrent, a thread-safe implementation with one mutex
// and one atomic min-hint per sub-queue, following the structure of the
// paper's C++ implementation (the paper uses 4x as many queues as threads;
// Concurrent defaults to the same ratio).
//
// Every sub-queue is an exactheap.Heap: an exact priority queue over packed
// sched.Item keys, with an O(1) path for keys that arrive in non-decreasing
// order (the static framework's preload) and a 4-ary heap for the rest. A
// sub-queue's hint is its heap's MinKey — the stored minimum itself, so two
// hints compare exactly as the two items do under Item.Less — and batch
// operations hand each run or batch to the heap in one call under the
// sub-queue lock. Sub-queues are sized so that a preload of the capacity the
// MultiQueue was built for reallocates none of them (see subqueueCapacity).
package multiqueue

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/exactheap"
)

// DefaultQueueFactor is the default ratio of sub-queues to worker threads in
// the concurrent MultiQueue, matching the paper's experimental setup.
const DefaultQueueFactor = 4

// Sequential is the single-threaded MultiQueue model. It is the scheduler the
// paper's synthetic simulations (Table 1) use.
type Sequential struct {
	queues []*exactheap.Heap
	size   int
	r      *rng.Rand
}

var _ sched.Scheduler = (*Sequential)(nil)

// NewSequential returns a MultiQueue model with c sub-queues (values below 1
// are treated as 1) using the given random source.
func NewSequential(c, capacity int, r *rng.Rand) *Sequential {
	if c < 1 {
		c = 1
	}
	per := subqueueCapacity(capacity, c)
	queues := make([]*exactheap.Heap, c)
	for i := range queues {
		queues[i] = exactheap.New(per)
	}
	return &Sequential{queues: queues, r: r}
}

// subqueueCapacity is the room each of c sub-queues gets so that capacity
// items dealt to uniformly random sub-queues fit without any of them
// reallocating. A sub-queue's share is binomial with mean capacity/c, dealt
// in runs of up to insertRunLength, so its standard deviation is at most
// σ = √(insertRunLength·capacity/c); sizing at the mean leaves about half
// the sub-queues to overflow — and to copy their whole backing array under
// the sub-queue lock — on every preload. Four σ of slack makes an overflow a
// 1-in-30 000 event per sub-queue, for a few per cent more memory at
// executor sizes.
func subqueueCapacity(capacity, c int) int {
	mean := float64(capacity) / float64(c)
	return int(mean+4*math.Sqrt(insertRunLength*mean)) + 1
}

// SequentialFactory returns a sched.Factory producing MultiQueue models with
// c sub-queues; each instance gets an independent random stream forked from r.
func SequentialFactory(c int, r *rng.Rand) sched.Factory {
	return func(capacity int) sched.Scheduler { return NewSequential(c, capacity, r.Fork()) }
}

// NumQueues returns the number of sub-queues.
func (m *Sequential) NumQueues() int { return len(m.queues) }

// Insert pushes the item into a uniformly random sub-queue.
func (m *Sequential) Insert(it sched.Item) {
	q := m.queues[m.r.Intn(len(m.queues))]
	q.Insert(it)
	m.size++
}

// ApproxGetMin samples two distinct random sub-queues and pops from the one
// with the smaller minimum. Empty sampled queues fall back to a linear scan
// so the operation only fails when the whole MultiQueue is empty.
func (m *Sequential) ApproxGetMin() (sched.Item, bool) {
	if m.size == 0 {
		return sched.Item{}, false
	}
	c := len(m.queues)
	var chosen *exactheap.Heap
	if c == 1 {
		chosen = m.queues[0]
	} else {
		i := m.r.Intn(c)
		j := m.r.Intn(c - 1)
		if j >= i {
			j++
		}
		// An empty sub-queue reports exactheap.EmptyKey, which compares above
		// every held key, so one compare also prefers the non-empty queue.
		qi, qj := m.queues[i], m.queues[j]
		if qi.MinKey() < qj.MinKey() {
			chosen = qi
		} else {
			chosen = qj
		}
	}
	if chosen.Empty() {
		// Both sampled queues were empty; size > 0 says another is not.
		for _, q := range m.queues {
			if !q.Empty() {
				chosen = q
				break
			}
		}
	}
	it, ok := chosen.ApproxGetMin()
	if ok {
		m.size--
	}
	return it, ok
}

// Len returns the number of held items.
func (m *Sequential) Len() int { return m.size }

// Empty reports whether the MultiQueue is empty.
func (m *Sequential) Empty() bool { return m.size == 0 }

// emptyHint is the atomic min-key hint of an empty sub-queue. Hints are
// sched.Item keys — the sub-queue's own stored minimum — so comparing two
// hints is comparing two items with Item.Less. exactheap.EmptyKey is the key
// of ⟨math.MaxInt32, math.MaxUint32⟩, which no held item carries (see its
// comment), so a hint equal to it always means "empty".
const emptyHint = exactheap.EmptyKey

// Concurrent is the thread-safe MultiQueue. Every sub-queue has its own
// mutex-protected heap and an atomic hint of its current minimum so that
// ApproxGetMin can compare two queues without locking either.
//
// Concurrent additionally implements sched.PerWorker: an executor worker can
// acquire a worker-affine Handle whose operations prefer a contiguous home
// slice of sub-queues and whose random stream is private (no sync.Pool
// traffic in the hot loop). See WorkerHandle.
type Concurrent struct {
	queues []concurrentSubqueue
	size   atomic.Int64
	seed   atomic.Uint64
	// rands supplies the seeded generators that drive batch inserts and
	// worker handles. Per-operation paths (Insert, ApproxGetMin,
	// ApproxPopBatch) use math/rand/v2's runtime-backed per-P generator
	// instead: queue *choice* needs no seeded stream, and a pool get/put per
	// operation was measurable shared-memory traffic in the pop hot loop.
	rands sync.Pool

	// Slow-path counters behind Stats. They are touched only off the fast
	// path — when a pop finds nothing, leaves its home shard, or falls back
	// to global sampling — so plain atomics do not contend with useful work.
	steals          atomic.Int64
	emptyPolls      atomic.Int64
	globalFallbacks atomic.Int64
}

// Stats is a snapshot of the MultiQueue's slow-path counters. All counters
// are cumulative since construction.
type Stats struct {
	// Steals counts pops served from another worker's shard after the
	// popping worker found its own home shard empty (worker-affine handles
	// only).
	Steals int64
	// EmptyPolls counts removal attempts that found nothing anywhere — the
	// size fast path saw zero, or the exhaustive scan of every sub-queue
	// came up empty.
	EmptyPolls int64
	// GlobalFallbacks counts affine pops that fell through both the home
	// shard and the steal ring into global two-choice sampling.
	GlobalFallbacks int64
}

// Stats returns a snapshot of the scheduler's slow-path counters. It is safe
// to call concurrently with operations.
func (m *Concurrent) Stats() Stats {
	return Stats{
		Steals:          m.steals.Load(),
		EmptyPolls:      m.emptyPolls.Load(),
		GlobalFallbacks: m.globalFallbacks.Load(),
	}
}

type concurrentSubqueue struct {
	mu   sync.Mutex
	heap *exactheap.Heap
	top  atomic.Uint64 // the heap's MinKey whenever mu is free; emptyHint when empty
	_    [4]uint64     // padding to keep sub-queues on separate cache lines
}

var _ sched.Concurrent = (*Concurrent)(nil)
var _ sched.PerWorker = (*Concurrent)(nil)

// NewConcurrent returns a concurrent MultiQueue with c sub-queues (values
// below 2 are raised to 2, since two-choice sampling needs at least two
// queues to make sense and a single queue would serialize completely).
func NewConcurrent(c, capacity int, seed uint64) *Concurrent {
	if c < 2 {
		c = 2
	}
	mq := &Concurrent{queues: make([]concurrentSubqueue, c)}
	per := subqueueCapacity(capacity, c)
	for i := range mq.queues {
		mq.queues[i].heap = exactheap.New(per)
		mq.queues[i].top.Store(emptyHint)
	}
	mq.seed.Store(seed)
	mq.rands.New = func() any {
		s := mq.seed.Add(0x9e3779b97f4a7c15)
		return rng.New(s)
	}
	return mq
}

// NumQueues returns the number of sub-queues.
func (m *Concurrent) NumQueues() int { return len(m.queues) }

// Insert pushes the item into a uniformly random sub-queue.
func (m *Concurrent) Insert(it sched.Item) {
	q := &m.queues[rand.IntN(len(m.queues))]
	q.mu.Lock()
	q.heap.Insert(it)
	// The hint equals the heap minimum whenever the lock is free, so after an
	// insert it only moves if the new item became that minimum — comparing
	// keys elides the atomic store (and a heap peek) in the common
	// case of a non-minimal insert.
	if k := it.Key(); k < q.top.Load() {
		q.top.Store(k)
	}
	q.mu.Unlock()
	m.size.Add(1)
}

// insertRun pushes a run of items into sub-queue idx under one lock
// acquisition with one heap call and one hint update. The shared size counter
// is NOT updated; callers amortize one size.Add over all their runs.
func (m *Concurrent) insertRun(idx int, run []sched.Item) {
	q := &m.queues[idx]
	q.mu.Lock()
	q.heap.InsertBatch(run)
	// Same elision as Insert: the hint only moves if the run lowered the
	// heap minimum.
	if k := q.heap.MinKey(); k < q.top.Load() {
		q.top.Store(k)
	}
	q.mu.Unlock()
}

// insertRunLength is how many items of a batch share one randomly chosen
// sub-queue (and hence one lock acquisition and one hint update). Longer
// runs amortize better but concentrate consecutive priorities in one queue,
// inflating the MultiQueue's effective rank error by ~c·run; 4 keeps the
// empirical mean rank within the O(c) regime of Definition 1 that the
// integration tests check.
const insertRunLength = 4

// InsertBatch pushes the items into uniformly random sub-queues in runs of
// insertRunLength, amortizing one lock acquisition and one hint update over
// each run and one shared size update over the whole batch. Per-item queue
// choice stays uniform (choices within a run are merely correlated), so the
// exponential tail shape of Definition 1 is preserved with modestly larger
// constants. The size counter is published once after the last run; the
// window in which inserted items are poppable but uncounted can only make
// concurrent removers see a transiently small (even negative) size, which
// the Concurrent contract already treats as an unreliable emptiness hint.
func (m *Concurrent) InsertBatch(items []sched.Item) {
	if len(items) == 0 {
		return
	}
	r := m.rands.Get().(*rng.Rand)
	defer m.rands.Put(r)
	m.insertBatchWith(r, 0, len(m.queues), items)
}

// insertBatchWith is the shared batch-insert loop: runs of insertRunLength
// into random sub-queues drawn from [lo, hi), one size publish at the end.
func (m *Concurrent) insertBatchWith(r *rng.Rand, lo, hi int, items []sched.Item) {
	for start := 0; start < len(items); start += insertRunLength {
		end := start + insertRunLength
		if end > len(items) {
			end = len(items)
		}
		m.insertRun(lo+r.Intn(hi-lo), items[start:end])
	}
	m.size.Add(int64(len(items)))
}

// ApproxPopBatch samples two distinct sub-queues like ApproxGetMin and pops
// up to len(out) items from the better one under a single lock acquisition.
// The removed items are the chosen sub-queue's smallest, in increasing
// priority order. If the sampled queues are empty it retries, then falls
// back to scanning every queue, so a zero result strongly indicates the
// MultiQueue is (momentarily) empty.
func (m *Concurrent) ApproxPopBatch(out []sched.Item) int {
	if len(out) == 0 {
		return 0
	}
	if m.size.Load() == 0 {
		m.emptyPolls.Add(1)
		return 0
	}
	return m.popAny(out)
}

// ApproxGetMin samples two distinct sub-queues, compares their atomic
// min-hints, and pops from the better one. If the chosen queue is locked or
// turns out to be empty it retries with a fresh sample; after enough failed
// attempts it falls back to scanning all queues under their locks, so a false
// return strongly indicates the MultiQueue is (momentarily) empty.
func (m *Concurrent) ApproxGetMin() (sched.Item, bool) {
	if m.size.Load() == 0 {
		m.emptyPolls.Add(1)
		return sched.Item{}, false
	}
	var one [1]sched.Item
	if m.popAny(one[:]) == 1 {
		return one[0], true
	}
	return sched.Item{}, false
}

// popAny is the shared removal path: two-choice sampling over the min-hints
// with a bounded number of attempts (skipping locked or empty-looking
// queues), then a full locked scan so a zero result is only returned when
// every queue really had nothing to give.
func (m *Concurrent) popAny(out []sched.Item) int {
	const maxAttempts = 8
	for attempt := 0; attempt < maxAttempts; attempt++ {
		idx := m.sampleQueue()
		if idx < 0 {
			continue
		}
		q := &m.queues[idx]
		if !q.mu.TryLock() {
			continue
		}
		n := m.popBatchFrom(q, out)
		q.mu.Unlock()
		if n > 0 {
			return n
		}
	}
	for idx := range m.queues {
		q := &m.queues[idx]
		q.mu.Lock()
		n := m.popBatchFrom(q, out)
		q.mu.Unlock()
		if n > 0 {
			return n
		}
	}
	m.emptyPolls.Add(1)
	return 0
}

// sampleQueue picks two distinct sub-queues uniformly at random (via the
// runtime's per-P generator — no shared state) and returns the index of the
// one with the smaller min-hint, or -1 when both sampled hints are empty.
func (m *Concurrent) sampleQueue() int {
	c := len(m.queues)
	// One generator call yields both choices: the halves of a Uint64 are
	// independent, and each is range-reduced with a multiply-shift instead of
	// a modulo (no 64-bit divide). The reduction's bias is immaterial for
	// queue *selection* — c is tiny relative to 2^32 and two-choice only
	// needs approximate uniformity.
	v := rand.Uint64()
	i := int((v >> 32) * uint64(c) >> 32)
	j := int((v & 0xffffffff) * uint64(c-1) >> 32)
	if j >= i {
		j++
	}
	ti := m.queues[i].top.Load()
	tj := m.queues[j].top.Load()
	switch {
	case tj < ti:
		return j
	case ti == emptyHint && tj == emptyHint:
		return -1
	default:
		return i
	}
}

// popBatchFrom pops up to len(out) items from q, whose lock the caller
// holds, and refreshes the min-hint once at the end.
func (m *Concurrent) popBatchFrom(q *concurrentSubqueue, out []sched.Item) int {
	n := q.heap.ApproxPopBatch(out)
	q.top.Store(q.heap.MinKey())
	if n > 0 {
		m.size.Add(int64(-n))
	}
	return n
}

// Len returns the approximate number of held items.
func (m *Concurrent) Len() int { return int(m.size.Load()) }

// Empty reports whether the MultiQueue is (approximately) empty.
func (m *Concurrent) Empty() bool { return m.size.Load() == 0 }
