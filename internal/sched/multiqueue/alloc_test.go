package multiqueue

import (
	"testing"

	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
)

// ascendingItems returns n items in label order: item i is task i at
// priority i, as the static framework seeds them.
func ascendingItems(n int) []sched.Item {
	items := make([]sched.Item, n)
	for i := range items {
		items[i] = sched.Item{Task: int32(i), Priority: uint32(i)}
	}
	return items
}

func TestApproxGetMinDoesNotAllocate(t *testing.T) {
	mq := NewConcurrent(4, 1024, 1)
	for i := 0; i < 1024; i++ {
		mq.Insert(sched.Item{Task: int32(i), Priority: uint32(i)})
	}
	allocs := testing.AllocsPerRun(200, func() {
		mq.ApproxGetMin()
	})
	if allocs > 0 {
		t.Fatalf("ApproxGetMin allocates %.1f per op", allocs)
	}
}

// TestPreloadOfCapacityDoesNotAllocate pins the sub-queue sizing: a fresh
// MultiQueue built for capacity items takes a batch insert of exactly that
// many — the static framework's preload — without any sub-queue outgrowing
// its backing array, whichever part of the sub-queue heap the arrival order
// sends the items to. A sub-queue sized at its mean share overflows on about
// every other dealing and copies its whole array under the sub-queue lock.
func TestPreloadOfCapacityDoesNotAllocate(t *testing.T) {
	const c, n = 8, 100_000
	ascending := ascendingItems(n)
	for seed := uint64(1); seed <= 5; seed++ {
		shuffled := make([]sched.Item, n)
		for i, j := range rng.New(seed).Perm(n) {
			shuffled[i] = ascending[j]
		}
		for name, items := range map[string][]sched.Item{"ascending": ascending, "shuffled": shuffled} {
			// AllocsPerRun makes one unmeasured warm-up call first, so each
			// call gets a fresh queue of its own (through a worker handle,
			// whose random stream is private: no pool traffic to count).
			fresh := []sched.Concurrent{
				NewConcurrent(c, n, seed).WorkerHandle(0, 2),
				NewConcurrent(c, n, seed+100).WorkerHandle(0, 2),
			}
			if allocs := testing.AllocsPerRun(1, func() {
				fresh[0].InsertBatch(items)
				fresh = fresh[1:]
			}); allocs > 0 {
				t.Errorf("seed %d, %s: preload of capacity items into a fresh queue allocates %.0f times", seed, name, allocs)
			}
		}
	}
}

// TestHintIsMinimumWithNegativeTasks: the min-hint is the sub-queue's
// smallest item under Item.Less also when task ids are negative. Packing the
// task as a plain uint32 sorted a negative id after every non-negative one,
// so the insert below left the hint at task 5 while the heap minimum was
// task -3.
func TestHintIsMinimumWithNegativeTasks(t *testing.T) {
	mq := NewConcurrent(2, 8, 1)
	low := sched.Item{Task: -3, Priority: 1}
	placeInQueues(mq, 0, 1, []sched.Item{{Task: 5, Priority: 1}, low, {Task: 0, Priority: 1}})
	if got := mq.queues[0].top.Load(); got != low.Key() {
		t.Fatalf("hint = %v, sub-queue minimum is %v", sched.ItemOfKey(got), low)
	}
	h := mq.WorkerHandle(0, 1)
	if it, ok := h.ApproxGetMin(); !ok || it != low {
		t.Fatalf("first pop = %v, %v; want %v", it, ok, low)
	}
	if got, want := mq.queues[0].top.Load(), (sched.Item{Task: 0, Priority: 1}).Key(); got != want {
		t.Fatalf("hint after pop = %v, want task 0", sched.ItemOfKey(got))
	}
}
