package service

import (
	"fmt"

	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/exactheap"
	"relaxsched/internal/sched/kbounded"
	"relaxsched/internal/sched/multiqueue"
)

// Job-queue scheduler families. The pending-job queue *is* an
// internal/sched scheduler — the same implementations the paper studies at
// task granularity, applied at job granularity. The manager serializes
// queue operations under its own mutex, so the sequential-model
// implementations apply directly.
const (
	// JobSchedExact is the exact binary heap: jobs dispatch in strict
	// priority order (rank error always 0).
	JobSchedExact = "exact"
	// JobSchedMultiQueue is the MultiQueue model with k sub-queues: random
	// two-choice dispatch with exponential rank-error tails.
	JobSchedMultiQueue = "multiqueue"
	// JobSchedKBounded is the deterministic k-bounded queue: every dispatch
	// has rank at most k.
	JobSchedKBounded = "kbounded"
	// JobSchedFIFO is a priority-blind baseline: dispatch in submission
	// order, unbounded rank error — what a conventional job service does,
	// and the yardstick the relaxed schedulers are judged against.
	JobSchedFIFO = "fifo"
	// JobSchedAuto is the adaptive mode: a k-bounded queue whose k the
	// manager's feedback controller (internal/control) retunes online —
	// widening under queue pressure, tightening toward exact when the
	// observed rank error breaches the operator's SLO. The controller also
	// drives the executor batch size through core.TunableOptions.
	JobSchedAuto = "auto"
)

// JobSchedNames lists the selectable job-queue schedulers.
func JobSchedNames() []string {
	return []string{JobSchedExact, JobSchedMultiQueue, JobSchedKBounded, JobSchedFIFO, JobSchedAuto}
}

// NewJobScheduler constructs the named job-queue scheduler. k is the
// relaxation factor for multiqueue (sub-queues) and kbounded (dispatch
// bound); exact and fifo ignore it. capacity sizes the underlying
// structures (the admission bound fits naturally).
func NewJobScheduler(name string, k, capacity int, seed uint64) (sched.Scheduler, error) {
	if k < 1 {
		return nil, fmt.Errorf("invalid job-scheduler relaxation %d: must be at least 1", k)
	}
	if capacity < 1 {
		capacity = 1
	}
	switch name {
	case JobSchedExact:
		return exactheap.New(capacity), nil
	case JobSchedMultiQueue:
		return multiqueue.NewSequential(k, capacity, rng.New(seed)), nil
	case JobSchedKBounded:
		return kbounded.New(k, capacity), nil
	case JobSchedAuto:
		// The adaptive mode starts as a k-bounded queue at the given k; the
		// manager's control loop retunes it through kbounded.Queue.SetK.
		return kbounded.New(k, capacity), nil
	case JobSchedFIFO:
		return newFIFOQueue(capacity), nil
	default:
		return nil, fmt.Errorf("unknown job scheduler %q (known: %v)", name, JobSchedNames())
	}
}

// fifoQueue is the priority-blind baseline: dispatch order is submission
// order. Its rank error against the priority order is unbounded, which is
// exactly the point of measuring it.
type fifoQueue struct {
	items []sched.Item
	head  int
}

var _ sched.Scheduler = (*fifoQueue)(nil)

func newFIFOQueue(capacity int) *fifoQueue {
	return &fifoQueue{items: make([]sched.Item, 0, capacity)}
}

func (q *fifoQueue) Insert(it sched.Item) { q.items = append(q.items, it) }

// ApproxGetMin dispenses the oldest item. The dead prefix is compacted by
// the shared rule: a service pinned at its admission bound never fully
// drains the queue, and would otherwise grow the prefix by one item per job
// forever.
func (q *fifoQueue) ApproxGetMin() (sched.Item, bool) {
	if q.head >= len(q.items) {
		return sched.Item{}, false
	}
	it := q.items[q.head]
	q.items, q.head = sched.DropDeadPrefix(q.items, q.head+1)
	return it, true
}

func (q *fifoQueue) Len() int    { return len(q.items) - q.head }
func (q *fifoQueue) Empty() bool { return q.Len() == 0 }
