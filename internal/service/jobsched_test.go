package service

import (
	"testing"

	"relaxsched/internal/ranktrack"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
)

func TestNewJobSchedulerNames(t *testing.T) {
	for _, name := range JobSchedNames() {
		s, err := NewJobScheduler(name, 4, 64, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s.Insert(sched.Item{Task: 1, Priority: 10})
		s.Insert(sched.Item{Task: 2, Priority: 5})
		if s.Len() != 2 {
			t.Fatalf("%s: Len = %d", name, s.Len())
		}
		if _, ok := s.ApproxGetMin(); !ok {
			t.Fatalf("%s: pop failed", name)
		}
	}
	if _, err := NewJobScheduler("mystery", 4, 64, 1); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := NewJobScheduler(JobSchedMultiQueue, 0, 64, 1); err == nil {
		t.Fatal("zero relaxation accepted")
	}
}

// TestFIFOQueueOrder: the fifo baseline dispenses in submission order,
// ignoring priorities entirely.
func TestFIFOQueueOrder(t *testing.T) {
	q := newFIFOQueue(4)
	in := []sched.Item{{Task: 1, Priority: 9}, {Task: 2, Priority: 1}, {Task: 3, Priority: 5}}
	for _, it := range in {
		q.Insert(it)
	}
	for i, want := range in {
		got, ok := q.ApproxGetMin()
		if !ok || got != want {
			t.Fatalf("pop %d = %v, %v; want %v", i, got, ok, want)
		}
	}
	if !q.Empty() || q.Len() != 0 {
		t.Fatalf("queue not empty after draining: len=%d", q.Len())
	}
	if _, ok := q.ApproxGetMin(); ok {
		t.Fatal("empty queue popped")
	}
	// Interleaved insert/pop keeps FIFO order across the head-reset.
	q.Insert(sched.Item{Task: 4, Priority: 0})
	q.Insert(sched.Item{Task: 5, Priority: 7})
	if it, _ := q.ApproxGetMin(); it.Task != 4 {
		t.Fatalf("got task %d, want 4", it.Task)
	}
	q.Insert(sched.Item{Task: 6, Priority: 3})
	for _, want := range []int32{5, 6} {
		if it, _ := q.ApproxGetMin(); it.Task != want {
			t.Fatalf("got task %d, want %d", it.Task, want)
		}
	}
}

// TestFIFOQueueBoundedUnderSustainedBacklog: a queue that never fully
// drains (the saturated-service regime) must not grow its backing array
// without bound — the dead prefix is compacted away.
func TestFIFOQueueBoundedUnderSustainedBacklog(t *testing.T) {
	q := newFIFOQueue(4)
	const depth = 256
	for i := 0; i < depth; i++ {
		q.Insert(sched.Item{Task: int32(i)})
	}
	for i := 0; i < 1_000_000; i++ {
		if _, ok := q.ApproxGetMin(); !ok {
			t.Fatal("pop failed with a full backlog")
		}
		q.Insert(sched.Item{Task: int32(depth + i)})
		if q.Len() != depth {
			t.Fatalf("backlog depth drifted to %d", q.Len())
		}
	}
	if c := cap(q.items); c > 5*depth {
		t.Fatalf("backing array grew to cap %d for a depth-%d backlog", c, depth)
	}
	// FIFO order survived a million compaction-eligible operations: items
	// 0..999999 were popped in insertion order, so item 1000000 is next.
	it, _ := q.ApproxGetMin()
	if it.Task != 1_000_000 {
		t.Fatalf("head task = %d after sustained backlog", it.Task)
	}
}

// TestRankTrackerAgreesWithExactScheduler: popping an exact heap must
// always observe rank 1 through the tracker, measured exactly as the
// manager measures it. (The tracker's own unit tests live in
// internal/ranktrack.)
func TestRankTrackerAgreesWithExactScheduler(t *testing.T) {
	s, err := NewJobScheduler(JobSchedExact, 1, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	var tr ranktrack.Tracker
	r := rng.New(7)
	for i := 0; i < 200; i++ {
		it := sched.Item{Task: int32(i), Priority: uint32(r.Intn(50))}
		s.Insert(it)
		tr.Insert(it)
	}
	for {
		it, ok := s.ApproxGetMin()
		if !ok {
			break
		}
		if rank := tr.Remove(it); rank != 1 {
			t.Fatalf("exact heap dispensed rank %d", rank)
		}
	}
}

// TestKBoundedJobSchedRankBound: the deterministic k-bounded queue never
// dispenses an item of rank beyond k, measured through the tracker exactly
// as the manager measures it.
func TestKBoundedJobSchedRankBound(t *testing.T) {
	const k = 4
	s, err := NewJobScheduler(JobSchedKBounded, k, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	var tr ranktrack.Tracker
	r := rng.New(11)
	live := 0
	for i := 0; i < 500; i++ {
		if live == 0 || r.Intn(3) != 0 {
			it := sched.Item{Task: int32(i), Priority: uint32(r.Intn(100))}
			s.Insert(it)
			tr.Insert(it)
			live++
		} else {
			it, ok := s.ApproxGetMin()
			if !ok {
				t.Fatal("pop failed with live items")
			}
			if rank := tr.Remove(it); rank < 1 || rank > k {
				t.Fatalf("kbounded dispensed rank %d, bound %d", rank, k)
			}
			live--
		}
	}
}
