// Package faaqueue implements a fetch-and-add based MPMC FIFO queue, standing
// in for the "Wait-Free Queue as Fast as Fetch-and-Add" of Yang and
// Mellor-Crummey (reference [27]) that the paper uses as its *exact*
// concurrent scheduler baseline.
//
// In the paper's exact framework the task permutation is loaded into the
// queue up front in priority order, so a FIFO dispenses tasks in exactly the
// sequential order while costing just one fetch-and-add per dequeue. This
// implementation keeps that property: enqueues claim a ticket with a single
// atomic add on the tail counter and publish the item into the ticket's cell;
// dequeues claim a ticket from the head counter and consume the corresponding
// cell. Cells live in dynamically allocated fixed-size segments linked by
// atomic pointers, so the queue is unbounded.
//
// Dequeues reserve their claims out of the published-item counter before
// touching the head, so poppers collectively never claim more tickets than
// there are published items and the head cannot overtake the tail. The
// queue is therefore lock-free rather than wait-free on both sides: a
// popper whose reserved ticket belongs to an enqueuer that has claimed but
// not yet published its cell briefly spins (then yields) until the publish
// lands. A zero result means the published count was (momentarily) zero;
// the execution framework tolerates such spurious empties because it
// tracks outstanding work separately.
package faaqueue

import (
	"runtime"
	"sync/atomic"

	"relaxsched/internal/sched"
)

const (
	segmentSize = 1024

	cellEmpty = 0 // no value published yet
	cellTaken = 1 // invalidated by a dequeuer that overtook the enqueuer
	cellBias  = 2 // published values are stored as packed+cellBias
)

type segment struct {
	id    int64
	cells [segmentSize]atomic.Uint64
	next  atomic.Pointer[segment]
}

// Queue is an unbounded MPMC FIFO queue of sched.Item values. Items are
// returned in (approximately, under contention exactly per-ticket) the order
// they were enqueued. The zero value is not usable; use New.
type Queue struct {
	head    atomic.Int64
	tail    atomic.Int64
	size    atomic.Int64
	first   *segment // segment 0; anchor for lagging ticket holders
	headSeg atomic.Pointer[segment]
	tailSeg atomic.Pointer[segment]
}

var _ sched.Concurrent = (*Queue)(nil)

// New returns an empty queue. The capacity hint is accepted for interface
// symmetry with other schedulers but segments are allocated on demand.
func New(capacity int) *Queue {
	first := &segment{id: 0}
	q := &Queue{first: first}
	q.headSeg.Store(first)
	q.tailSeg.Store(first)
	return q
}

func pack(it sched.Item) uint64 {
	return uint64(it.Priority)<<32 | uint64(uint32(it.Task))
}

func unpack(v uint64) sched.Item {
	return sched.Item{Task: int32(uint32(v)), Priority: uint32(v >> 32)}
}

// findSegment walks (and extends) the segment list until it reaches the
// segment with the given id, updating the hint pointer if it advanced. The
// hint can legitimately be ahead of id (another goroutine with a later ticket
// advanced it first); in that case the walk restarts from the first segment,
// which is retained for the lifetime of the queue precisely so that lagging
// ticket holders can always find their cell.
func (q *Queue) findSegment(hint *atomic.Pointer[segment], id int64) *segment {
	seg := hint.Load()
	if seg.id > id {
		seg = q.first
	}
	for seg.id < id {
		next := seg.next.Load()
		if next == nil {
			candidate := &segment{id: seg.id + 1}
			if seg.next.CompareAndSwap(nil, candidate) {
				next = candidate
			} else {
				next = seg.next.Load()
			}
		}
		seg = next
	}
	// Advance the hint so later calls start closer; harmless if it races.
	if cur := hint.Load(); cur.id < seg.id {
		hint.CompareAndSwap(cur, seg)
	}
	return seg
}

// Insert enqueues an item at the tail.
func (q *Queue) Insert(it sched.Item) {
	v := pack(it) + cellBias
	for {
		t := q.tail.Add(1) - 1
		seg := q.findSegment(&q.tailSeg, t/segmentSize)
		cell := &seg.cells[t%segmentSize]
		if cell.CompareAndSwap(cellEmpty, v) {
			q.size.Add(1)
			return
		}
		// The cell was invalidated by a dequeuer that overtook us; retry with
		// a fresh ticket.
	}
}

// consumeTicket resolves dequeue ticket h: it waits for the owning
// enqueuer's publish and returns the item, or — when no enqueuer has claimed
// the ticket yet — invalidates the cell so the eventual owner retries
// elsewhere and reports false.
//
// Because every pop path reserves its claims from the size counter first,
// reserved claims ≤ published items ≤ tail claims and the h >= tail branch
// is not reachable from this package's own methods; it is kept (with the
// matching enqueue retry) as defense in depth so the ticket protocol stays
// correct even for a claim made without a reservation.
func (q *Queue) consumeTicket(h int64) (sched.Item, bool) {
	seg := q.findSegment(&q.headSeg, h/segmentSize)
	cell := &seg.cells[h%segmentSize]
	if h >= q.tail.Load() {
		if cell.CompareAndSwap(cellEmpty, cellTaken) {
			return sched.Item{}, false
		}
		// An enqueuer published concurrently after all; consume it below.
	}
	// The enqueuer owning this ticket has performed (or will imminently
	// perform) its publish; wait for the value.
	for spin := 0; ; spin++ {
		v := cell.Load()
		if v >= cellBias {
			return unpack(v - cellBias), true
		}
		if v == cellTaken {
			// Defensive: nobody else invalidates our ticket, but treat a
			// taken cell as an empty slot rather than spinning on it.
			return sched.Item{}, false
		}
		if spin > 128 {
			runtime.Gosched()
		}
	}
}

// ApproxGetMin dequeues the item at the head of the FIFO. A false result
// means the queue was (momentarily) empty; under concurrent enqueues it may
// be spurious.
func (q *Queue) ApproxGetMin() (sched.Item, bool) {
	var one [1]sched.Item
	if q.ApproxPopBatch(one[:]) == 1 {
		return one[0], true
	}
	return sched.Item{}, false
}

// InsertBatch enqueues all items with a single fetch-and-add on the tail
// counter: the batch claims a contiguous ticket range, so FIFO order within
// the batch is the items' order and the per-item cost is one CAS publish
// instead of one FAA plus one CAS. Items whose cells were invalidated by an
// overtaking dequeuer (a rare near-empty race) are retried with fresh
// tickets, preserving their relative order.
func (q *Queue) InsertBatch(items []sched.Item) {
	pending := items
	for len(pending) > 0 {
		b := int64(len(pending))
		t := q.tail.Add(b) - b
		published := int64(0)
		var failed []sched.Item
		for i, it := range pending {
			ticket := t + int64(i)
			seg := q.findSegment(&q.tailSeg, ticket/segmentSize)
			cell := &seg.cells[ticket%segmentSize]
			if cell.CompareAndSwap(cellEmpty, pack(it)+cellBias) {
				published++
			} else {
				failed = append(failed, it)
			}
		}
		if published > 0 {
			q.size.Add(published)
		}
		pending = failed
	}
}

// ApproxPopBatch dequeues up to len(out) items with a single fetch-and-add
// on the head counter. Claims are first *reserved* out of the published-item
// counter with a CAS, so concurrent poppers collectively never claim more
// head tickets than there are published items: the head cannot run past the
// tail, no cells are invalidated and no segments burned by idle polling.
// Items are returned in FIFO (ticket) order, so a priority-ordered preload
// dispenses exactly as the sequential algorithm would, batch or no batch.
func (q *Queue) ApproxPopBatch(out []sched.Item) int {
	if len(out) == 0 {
		return 0
	}
	var want int64
	for {
		avail := q.size.Load()
		if avail <= 0 {
			return 0
		}
		want = int64(len(out))
		if avail < want {
			want = avail
		}
		if q.size.CompareAndSwap(avail, avail-want) {
			break
		}
	}
	h := q.head.Add(want) - want
	n := 0
	for i := int64(0); i < want; i++ {
		if it, ok := q.consumeTicket(h + i); ok {
			out[n] = it
			n++
		}
	}
	if int64(n) < want {
		// A ticket was invalidated (only possible through historic races);
		// the published items it missed are at later tickets, so return the
		// unused reservations for other poppers to claim.
		q.size.Add(want - int64(n))
	}
	return n
}

// Len returns the approximate number of items currently in the queue.
func (q *Queue) Len() int { return int(q.size.Load()) }

// Empty reports whether the queue is (approximately) empty.
func (q *Queue) Empty() bool { return q.size.Load() <= 0 }
