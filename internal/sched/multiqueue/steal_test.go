package multiqueue

import (
	"sync"
	"testing"

	"relaxsched/internal/sched"
)

// TestWorkerHandleShardPartition pins the home-shard geometry: contiguous,
// balanced, covering, and clamped for degenerate arguments.
func TestWorkerHandleShardPartition(t *testing.T) {
	mq := NewConcurrent(8, 64, 1)
	covered := make([]int, 8)
	for w := 0; w < 4; w++ {
		h := mq.WorkerHandle(w, 4).(*Handle)
		if h.homeN != 2 || h.homeLo != 2*w {
			t.Fatalf("worker %d shard [%d,%d), want [%d,%d)", w, h.homeLo, h.homeLo+h.homeN, 2*w, 2*w+2)
		}
		for i := 0; i < h.homeN; i++ {
			covered[h.homeLo+i]++
		}
	}
	for q, c := range covered {
		if c != 1 {
			t.Fatalf("sub-queue %d owned by %d workers, want 1", q, c)
		}
	}
	// More workers than queues: shards clamp to one queue, worker wraps.
	h := mq.WorkerHandle(9, 16).(*Handle)
	if h.homeN < 1 {
		t.Fatalf("clamped handle has empty home shard")
	}
	// Degenerate worker counts never panic and still cover the queue range.
	if h := mq.WorkerHandle(-3, 0).(*Handle); h.homeN != len(mq.queues) {
		t.Fatalf("single-worker handle owns %d queues, want all %d", h.homeN, len(mq.queues))
	}
}

// placeInQueues deposits items directly into sub-queues [lo, hi) round-robin,
// bypassing the uniform insert spreading — the steal tests need items pinned
// to a specific worker's home shard.
func placeInQueues(mq *Concurrent, lo, hi int, items []sched.Item) {
	for i := range items {
		mq.insertRun(lo+i%(hi-lo), items[i:i+1])
	}
	mq.size.Add(int64(len(items)))
}

// TestStealDrainsNeighborBeforeGlobalSampling is the deterministic steal
// semantics test: a worker whose home shard is empty must drain its nearest
// ring neighbor's shard before any farther shard is touched — even when the
// farther shard holds strictly better (smaller) priorities, which is exactly
// the case where global two-choice sampling would prefer the far shard.
func TestStealDrainsNeighborBeforeGlobalSampling(t *testing.T) {
	mq := NewConcurrent(8, 64, 7)
	const workers = 4
	h0 := mq.WorkerHandle(0, workers).(*Handle)

	// Neighbor shard (worker 1, queues [2,4)) holds tasks [0,8) at WORSE
	// priorities than the far shard (worker 3, queues [6,8)), which holds
	// tasks [100,108) at the global minima. Home shard (worker 0) stays
	// empty.
	neighbor := make([]sched.Item, 8)
	for i := range neighbor {
		neighbor[i] = sched.Item{Task: int32(i), Priority: uint32(1000 + i)}
	}
	placeInQueues(mq, 2, 4, neighbor)
	far := make([]sched.Item, 8)
	for i := range far {
		far[i] = sched.Item{Task: int32(100 + i), Priority: uint32(i)}
	}
	placeInQueues(mq, 6, 8, far)

	for pop := 0; pop < len(neighbor); pop++ {
		it, ok := h0.ApproxGetMin()
		if !ok {
			t.Fatalf("pop %d: scheduler empty with %d items left", pop, 16-pop)
		}
		if it.Task >= 100 {
			t.Fatalf("pop %d drew task %d from the far shard before the neighbor shard drained", pop, it.Task)
		}
	}
	if st := mq.Stats(); st.Steals != int64(len(neighbor)) {
		t.Fatalf("Steals = %d after draining the neighbor shard, want %d", st.Steals, len(neighbor))
	}
	// With the ring ahead empty the handle keeps stealing around it to the
	// far shard; nothing is stranded.
	for pop := 0; pop < len(far); pop++ {
		it, ok := h0.ApproxGetMin()
		if !ok || it.Task < 100 {
			t.Fatalf("pop %d of far shard: got (%v, %v)", pop, it, ok)
		}
	}
	if !mq.Empty() {
		t.Fatal("queue not empty after stealing drain")
	}
}

// TestWorkerHandlePrefersHomeShard: a worker with a non-empty home shard
// whose minima are no worse than the rest of the queue pops from it and
// never steals — the cross-shard glance only redirects a pop when it sees a
// strictly smaller hint elsewhere.
func TestWorkerHandlePrefersHomeShard(t *testing.T) {
	mq := NewConcurrent(8, 64, 3)
	h0 := mq.WorkerHandle(0, 4)
	home := make([]sched.Item, 16)
	for i := range home {
		home[i] = sched.Item{Task: int32(i), Priority: uint32(500 + i)}
	}
	placeInQueues(mq, 0, 2, home)
	other := make([]sched.Item, 16)
	for i := range other {
		other[i] = sched.Item{Task: int32(100 + i), Priority: uint32(1000 + i)}
	}
	placeInQueues(mq, 4, 6, other)

	for pop := 0; pop < len(home); pop++ {
		it, ok := h0.ApproxGetMin()
		if !ok || it.Task >= 100 {
			t.Fatalf("pop %d left the home shard while it held items: got (%v, %v)", pop, it, ok)
		}
	}
	if st := mq.Stats(); st.Steals != 0 {
		t.Fatalf("Steals = %d with a non-empty home shard, want 0", st.Steals)
	}
}

// TestCrossShardGlanceFindsBetterMinima pins the property that keeps the
// affine handle inside the classic MultiQueue rank envelope: a worker whose
// home shard is NON-empty but holds globally poor priorities must still
// drain another shard's superior minima via the per-pop global glance —
// without it, minima aging in an unserviced shard would be invisible until
// the busy worker's own shard emptied. The handle's random stream is seeded,
// so the drain order is deterministic.
func TestCrossShardGlanceFindsBetterMinima(t *testing.T) {
	mq := NewConcurrent(8, 64, 3)
	h0 := mq.WorkerHandle(0, 4)
	home := make([]sched.Item, 16)
	for i := range home {
		home[i] = sched.Item{Task: int32(i), Priority: uint32(500 + i)}
	}
	placeInQueues(mq, 0, 2, home)
	far := make([]sched.Item, 16)
	for i := range far {
		far[i] = sched.Item{Task: int32(100 + i), Priority: uint32(i)} // global minima
	}
	placeInQueues(mq, 4, 6, far)

	farEarly := 0
	seen := make(map[int32]int, 32)
	for pop := 0; pop < 32; pop++ {
		it, ok := h0.ApproxGetMin()
		if !ok {
			t.Fatalf("pop %d: scheduler empty with %d items left", pop, 32-pop)
		}
		seen[it.Task]++
		if pop < len(home) && it.Task >= 100 {
			farEarly++
		}
	}
	if farEarly == 0 {
		t.Fatal("glance never drained the far shard's global minima while the home shard held items")
	}
	for task, c := range seen {
		if c != 1 {
			t.Fatalf("task %d delivered %d times", task, c)
		}
	}
	if !mq.Empty() {
		t.Fatal("queue not empty after glance-assisted drain")
	}
}

// TestStatsEmptyPolls: removal attempts on an empty scheduler are counted.
func TestStatsEmptyPolls(t *testing.T) {
	mq := NewConcurrent(4, 16, 1)
	if _, ok := mq.ApproxGetMin(); ok {
		t.Fatal("empty queue returned an item")
	}
	h := mq.WorkerHandle(0, 2)
	if n := h.ApproxPopBatch(make([]sched.Item, 4)); n != 0 {
		t.Fatalf("empty queue popped %d items", n)
	}
	if st := mq.Stats(); st.EmptyPolls != 2 {
		t.Fatalf("EmptyPolls = %d, want 2", st.EmptyPolls)
	}
}

// TestWorkerHandleNoLossNoDuplication: handle-routed traffic with stealing
// delivers every item exactly once, concurrently, under unbalanced load (all
// items pinned to worker 0's shard — every other worker must steal or
// glance).
func TestWorkerHandleNoLossNoDuplication(t *testing.T) {
	const workers = 4
	const n = 20000
	mq := NewConcurrent(workers*DefaultQueueFactor, n, 11)

	// All items land in worker 0's home shard, so workers 1..3 start empty.
	all := make([]sched.Item, n)
	for i := range all {
		all[i] = sched.Item{Task: int32(i), Priority: uint32(i)}
	}
	placeInQueues(mq, 0, DefaultQueueFactor, all)
	if mq.Len() != n {
		t.Fatalf("Len = %d after shard placement, want %d", mq.Len(), n)
	}

	var mu sync.Mutex
	seen := make([]int, n)
	var wg, firstPops sync.WaitGroup
	// Worker 0 starts only after every other worker has made its first pop,
	// so on a loaded machine it cannot drain its shard before the others run;
	// those first pops find an empty home shard and a full shard 0.
	firstPops.Add(workers - 1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := mq.WorkerHandle(w, workers)
			out := make([]sched.Item, 13)
			local := make([]int32, 0, n/workers)
			if w == 0 {
				firstPops.Wait()
			}
			for pops := 0; ; pops++ {
				got := h.ApproxPopBatch(out)
				if w != 0 && pops == 0 {
					firstPops.Done()
				}
				if got == 0 {
					break
				}
				for _, it := range out[:got] {
					local = append(local, it.Task)
				}
			}
			mu.Lock()
			for _, task := range local {
				seen[task]++
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	for task, c := range seen {
		if c != 1 {
			t.Fatalf("task %d delivered %d times", task, c)
		}
	}
	if !mq.Empty() {
		t.Fatal("not empty after handle drain")
	}
	if st := mq.Stats(); st.Steals == 0 {
		t.Fatal("no steals recorded despite three workers with empty home shards")
	}
}

// TestWorkerHandleOpsDoNotAllocate pins the satellite fix: handle operations
// own their random stream, so the hot loop performs zero sync.Pool traffic
// and zero allocations per operation.
func TestWorkerHandleOpsDoNotAllocate(t *testing.T) {
	mq := NewConcurrent(8, 4096, 1)
	h := mq.WorkerHandle(0, 2)
	items := make([]sched.Item, 16)
	for i := range items {
		items[i] = sched.Item{Task: int32(i), Priority: uint32(i)}
	}
	out := make([]sched.Item, 16)
	h.InsertBatch(items) // warm the home heaps
	if allocs := testing.AllocsPerRun(200, func() {
		h.InsertBatch(items)
		for drained := 0; drained < len(items); {
			n := h.ApproxPopBatch(out)
			if n == 0 {
				t.Fatal("lost items mid-run")
			}
			drained += n
		}
	}); allocs > 0 {
		t.Fatalf("handle insert+pop cycle allocates %.1f per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if it, ok := h.ApproxGetMin(); ok {
			h.Insert(it)
		}
	}); allocs > 0 {
		t.Fatalf("handle single-item cycle allocates %.1f per op, want 0", allocs)
	}
}
