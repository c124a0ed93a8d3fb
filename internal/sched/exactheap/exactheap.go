// Package exactheap implements an exact (non-relaxed) priority scheduler. It
// is the k = 1 reference point of the paper: GetMin always returns the live
// item of smallest priority, so the framework built on it behaves exactly
// like Algorithm 1 and incurs zero wasted work — at the cost of having no
// concurrency whatsoever (wrap it in sched.Locked to share it between
// goroutines). It is also the storage under every heap-backed scheduler in
// this repository: each MultiQueue sub-queue, kbounded, topk and the job
// queue, so its layout is chosen for how those use it.
//
// Items are stored as their packed sched.Item.Key: one uint64 whose integer
// order is Item.Less, so a compare is one instruction and the minimum key
// doubles as the MultiQueue's lock-free hint. The keys live in two parts,
// and a pop takes the smaller of the two heads:
//
//   - An ascending run: an insert whose key is at least the run's last key
//     is appended to the run, which is consumed from the front. Both ends
//     cost O(1). The paper's framework preloads its n tasks in label order
//     and then only drains, so there every task takes this path; a stream
//     of non-decreasing keys of any origin does.
//   - A 4-ary implicit min-heap for every other insert. Half the depth of a
//     binary heap, and the four children of a node are adjacent: half a
//     cache line.
//
// Which part an item lands in depends only on the keys already held, never
// on who inserts; the pop sequence is that of any exact priority queue under
// the same total order.
package exactheap

import (
	"math"
	"math/bits"

	"relaxsched/internal/sched"
)

// EmptyKey is what MinKey returns for an empty heap. It is the key of
// ⟨task math.MaxInt32, priority math.MaxUint32⟩ and compares above every
// other key; no held item carries it, because task ids index a slice of
// tasks and the largest index of a slice of the largest length is
// math.MaxInt32 - 1.
const EmptyKey uint64 = math.MaxUint64

// Heap is an exact priority queue over sched.Item ordered by Item.Less. The
// zero value is an empty heap ready for use; New pre-allocates capacity.
type Heap struct {
	// run[head:] is the ascending run, in non-decreasing key order;
	// run[:head] is its consumed prefix.
	run  []uint64
	head int
	// heap is the 4-ary min-heap: the children of node i are 4i+1 … 4i+4.
	heap []uint64
}

var _ sched.Batcher = (*Heap)(nil)

// New returns an empty heap with room for capacity items before
// reallocating, whatever order they arrive in: both parts are sized for all
// of them, since the arrival order decides the split.
func New(capacity int) *Heap {
	if capacity < 0 {
		capacity = 0
	}
	return &Heap{run: make([]uint64, 0, capacity), heap: make([]uint64, 0, capacity)}
}

// Insert adds an item.
func (h *Heap) Insert(it sched.Item) { h.push(it.Key()) }

// InsertBatch adds every item, in order.
func (h *Heap) InsertBatch(items []sched.Item) {
	for _, it := range items {
		h.push(it.Key())
	}
}

// ApproxGetMin removes and returns the minimum item. Despite the name
// (shared with relaxed schedulers through the Scheduler interface), the
// result is always exact.
func (h *Heap) ApproxGetMin() (sched.Item, bool) {
	if h.Empty() {
		return sched.Item{}, false
	}
	k := h.pop()
	h.run, h.head = sched.DropDeadPrefix(h.run, h.head)
	return sched.ItemOfKey(k), true
}

// ApproxPopBatch removes the up to len(out) smallest items, stores them in
// out in increasing order and returns how many it removed.
func (h *Heap) ApproxPopBatch(out []sched.Item) int {
	n := min(len(out), h.Len())
	for i := range out[:n] {
		out[i] = sched.ItemOfKey(h.pop())
	}
	h.run, h.head = sched.DropDeadPrefix(h.run, h.head)
	return n
}

// Peek returns the minimum item without removing it.
func (h *Heap) Peek() (sched.Item, bool) {
	if h.Empty() {
		return sched.Item{}, false
	}
	return sched.ItemOfKey(h.MinKey()), true
}

// MinKey returns the key of the minimum item, or EmptyKey when the heap is
// empty.
func (h *Heap) MinKey() uint64 {
	k := EmptyKey
	if h.head < len(h.run) {
		k = h.run[h.head]
	}
	if len(h.heap) > 0 && h.heap[0] < k {
		k = h.heap[0]
	}
	return k
}

// Len returns the number of items in the heap.
func (h *Heap) Len() int { return len(h.run) - h.head + len(h.heap) }

// Empty reports whether the heap is empty.
func (h *Heap) Empty() bool { return h.Len() == 0 }

func (h *Heap) push(k uint64) {
	if n := len(h.run); n == h.head || k >= h.run[n-1] {
		h.run = append(h.run, k)
		return
	}
	h.heap = append(h.heap, k)
	h.siftUp(len(h.heap) - 1)
}

// pop removes and returns the minimum key of a non-empty heap. It leaves the
// run's consumed prefix alone: the exported callers apply the dead-prefix
// rule once, after their last pop.
func (h *Heap) pop() uint64 {
	a := h.heap
	if h.head < len(h.run) && (len(a) == 0 || h.run[h.head] <= a[0]) {
		k := h.run[h.head]
		h.head++
		return k
	}
	top := a[0]
	last := len(a) - 1
	h.heap = a[:last]
	if last > 0 {
		h.siftDown(a[last])
	}
	return top
}

// Both sift directions move a "hole" through the array and write the sifted
// key once at its final position, instead of swapping at every level — half
// the stores of the textbook swap formulation.

func (h *Heap) siftUp(i int) {
	a := h.heap
	k := a[i]
	for i > 0 {
		parent := (i - 1) / 4
		if k >= a[parent] {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = k
}

// siftDown places k, starting from a hole at the root.
func (h *Heap) siftDown(k uint64) {
	a := h.heap
	n := len(a)
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// m is the smallest of the up to four children. Which child that is
		// is a coin toss no branch predictor gets right, so with all four
		// present it is a tournament on borrow bits (bits.Sub64 reports x < y
		// as 0 or 1 without a branch).
		m, mk := c, a[c]
		if c+4 <= n {
			ch := a[c : c+4 : c+4]
			_, lo := bits.Sub64(ch[1], ch[0], 0)
			_, hi := bits.Sub64(ch[3], ch[2], 0)
			klo, khi := min(ch[0], ch[1]), min(ch[2], ch[3])
			_, up := bits.Sub64(khi, klo, 0)
			m, mk = c+int(lo+up*(2+hi-lo)), min(klo, khi)
		} else {
			for j := c + 1; j < n; j++ {
				if a[j] < mk {
					m, mk = j, a[j]
				}
			}
		}
		if mk >= k {
			break
		}
		a[i] = mk
		i = m
	}
	a[i] = k
}
