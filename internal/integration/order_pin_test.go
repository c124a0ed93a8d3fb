package integration

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"relaxsched/internal/algos/mis"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/multiqueue"
)

// The values below were recorded with the binary-heap sub-queues of PR 12.
// A sub-queue is an exact priority queue under a total order, so its storage
// is free to change but the sequence it pops is not: a different fingerprint
// or counter here means the kernel under the MultiQueue changed pop order,
// and every seeded sequential-model number in EXPERIMENTS.md with it.
const (
	pinnedPopFingerprint = 0xbf5b89f7bdb2c387
	pinnedMISIterations  = 20023
	pinnedMISDeadSkips   = 15200
	pinnedMISFailed      = 23
)

// TestSequentialModelPopOrderIsPinned fingerprints every pop of a seeded
// 16-queue sequential MultiQueue through a preload with tied priorities, a
// churn phase that re-inserts each popped item at a raised priority, and a
// full drain.
func TestSequentialModelPopOrderIsPinned(t *testing.T) {
	const n = 1 << 13
	r := rng.New(2024)
	mq := multiqueue.NewSequential(16, n, rng.New(99))
	h := fnv.New64a()
	var buf [8]byte
	pop := func() sched.Item {
		it, ok := mq.ApproxGetMin()
		if !ok {
			t.Fatal("pop from a non-empty MultiQueue failed")
		}
		binary.LittleEndian.PutUint32(buf[:4], uint32(it.Task))
		binary.LittleEndian.PutUint32(buf[4:], it.Priority)
		h.Write(buf[:])
		return it
	}
	for i := 0; i < n; i++ {
		mq.Insert(sched.Item{Task: int32(i), Priority: r.Uint32() % (n / 2)})
	}
	for i := 0; i < n; i++ {
		it := pop()
		it.Priority += r.Uint32() % 64
		mq.Insert(it)
	}
	for !mq.Empty() {
		pop()
	}
	if got := h.Sum64(); got != pinnedPopFingerprint {
		t.Fatalf("pop-sequence fingerprint = %#x, pinned %#x", got, uint64(pinnedPopFingerprint))
	}
}

// TestSequentialModelMISCountersArePinned runs seeded MIS over the same
// scheduler: the framework's counters are a function of the pop order alone.
func TestSequentialModelMISCountersArePinned(t *testing.T) {
	const n = 20000
	r := rng.New(31)
	g, err := graph.GNM(n, 100000, r)
	if err != nil {
		t.Fatal(err)
	}
	labels := core.RandomLabels(n, r)
	got, res, err := mis.RunRelaxed(g, labels, multiqueue.NewSequential(16, n, rng.New(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !mis.Equal(got, mis.Sequential(g, labels)) {
		t.Fatal("relaxed MIS differs from sequential MIS")
	}
	if res.Iterations != pinnedMISIterations || res.DeadSkips != pinnedMISDeadSkips || res.FailedDeletes != pinnedMISFailed {
		t.Fatalf("iterations/deadSkips/failedDeletes = %d/%d/%d, pinned %d/%d/%d",
			res.Iterations, res.DeadSkips, res.FailedDeletes,
			pinnedMISIterations, pinnedMISDeadSkips, pinnedMISFailed)
	}
}
