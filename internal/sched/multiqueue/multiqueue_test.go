package multiqueue

import (
	"sort"
	"sync"
	"testing"

	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
)

func TestSequentialSingleQueueIsExact(t *testing.T) {
	m := NewSequential(1, 8, rng.New(1))
	prios := []uint32{9, 3, 7, 1, 5}
	for i, p := range prios {
		m.Insert(sched.Item{Task: int32(i), Priority: p})
	}
	sorted := append([]uint32(nil), prios...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, want := range sorted {
		it, ok := m.ApproxGetMin()
		if !ok || it.Priority != want {
			t.Fatalf("single-queue MultiQueue returned %v, want %d", it, want)
		}
	}
}

func TestSequentialClampsQueueCount(t *testing.T) {
	m := NewSequential(0, 4, rng.New(2))
	if m.NumQueues() != 1 {
		t.Fatalf("NumQueues = %d, want 1", m.NumQueues())
	}
}

func TestSequentialNoLossNoDuplication(t *testing.T) {
	const n = 2000
	m := NewSequential(8, n, rng.New(3))
	for i := 0; i < n; i++ {
		m.Insert(sched.Item{Task: int32(i), Priority: uint32(i)})
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	seen := make([]bool, n)
	count := 0
	for {
		it, ok := m.ApproxGetMin()
		if !ok {
			break
		}
		if seen[it.Task] {
			t.Fatalf("task %d returned twice", it.Task)
		}
		seen[it.Task] = true
		count++
	}
	if count != n {
		t.Fatalf("drained %d items, want %d", count, n)
	}
	if !m.Empty() {
		t.Fatal("not empty after drain")
	}
}

func TestSequentialEmpty(t *testing.T) {
	m := NewSequential(4, 0, rng.New(4))
	if _, ok := m.ApproxGetMin(); ok {
		t.Fatal("empty MultiQueue returned an item")
	}
}

func TestSequentialRelaxationIsBounded(t *testing.T) {
	// The empirical mean rank of a c-queue MultiQueue should be well below c
	// (two-choice gives ~O(c) worst case but small average), and certainly
	// far below n.
	const n = 5000
	const c = 8
	inner := NewSequential(c, n, rng.New(5))
	m := sched.NewInstrumented(inner, n)
	for i := 0; i < n; i++ {
		m.Insert(sched.Item{Task: int32(i), Priority: uint32(i)})
	}
	for {
		if _, ok := m.ApproxGetMin(); !ok {
			break
		}
	}
	metrics := m.Metrics()
	if metrics.Removals != n {
		t.Fatalf("removals = %d, want %d", metrics.Removals, n)
	}
	if metrics.MeanRank > 4*c {
		t.Fatalf("mean rank %.2f too large for c=%d", metrics.MeanRank, c)
	}
	if metrics.MaxRank > n/10 {
		t.Fatalf("max rank %d suspiciously large", metrics.MaxRank)
	}
}

func TestSequentialFactory(t *testing.T) {
	f := SequentialFactory(4, rng.New(6))
	a := f(10)
	b := f(10)
	a.Insert(sched.Item{Task: 1, Priority: 1})
	if b.Len() != 0 {
		t.Fatal("factory instances share state")
	}
}

func TestConcurrentMinimumQueueCount(t *testing.T) {
	m := NewConcurrent(0, 10, 1)
	if m.NumQueues() != 2 {
		t.Fatalf("NumQueues = %d, want 2", m.NumQueues())
	}
}

func TestConcurrentSequentialUse(t *testing.T) {
	// Used from a single goroutine the concurrent MultiQueue must behave like
	// a (relaxed) scheduler: no loss, no duplication.
	const n = 1000
	m := NewConcurrent(8, n, 42)
	for i := 0; i < n; i++ {
		m.Insert(sched.Item{Task: int32(i), Priority: uint32(i)})
	}
	seen := make([]bool, n)
	count := 0
	for {
		it, ok := m.ApproxGetMin()
		if !ok {
			break
		}
		if seen[it.Task] {
			t.Fatalf("task %d returned twice", it.Task)
		}
		seen[it.Task] = true
		count++
	}
	if count != n {
		t.Fatalf("drained %d items, want %d", count, n)
	}
}

func TestConcurrentParallelDrain(t *testing.T) {
	// Multiple goroutines drain concurrently: every item is delivered to
	// exactly one goroutine.
	const n = 20000
	const workers = 8
	m := NewConcurrent(workers*DefaultQueueFactor, n, 7)
	for i := 0; i < n; i++ {
		m.Insert(sched.Item{Task: int32(i), Priority: uint32(i)})
	}
	var mu sync.Mutex
	seen := make([]int, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]int32, 0, n/workers)
			for {
				it, ok := m.ApproxGetMin()
				if !ok {
					break
				}
				local = append(local, it.Task)
			}
			mu.Lock()
			for _, task := range local {
				seen[task]++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	for task, c := range seen {
		if c != 1 {
			t.Fatalf("task %d delivered %d times", task, c)
		}
	}
}

func TestConcurrentParallelInsertAndDrain(t *testing.T) {
	const n = 10000
	const workers = 4
	m := NewConcurrent(workers*2, n, 11)
	var wg sync.WaitGroup
	// Insert from several goroutines.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				m.Insert(sched.Item{Task: int32(i), Priority: uint32(i)})
			}
		}(w)
	}
	wg.Wait()
	if m.Len() != n {
		t.Fatalf("Len = %d after parallel inserts, want %d", m.Len(), n)
	}
	// Drain from several goroutines.
	counts := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if _, ok := m.ApproxGetMin(); !ok {
					return
				}
				counts[w]++
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("parallel drain delivered %d items, want %d", total, n)
	}
	if !m.Empty() {
		t.Fatal("not empty after parallel drain")
	}
}

func BenchmarkConcurrentInsertDelete(b *testing.B) {
	m := NewConcurrent(16, 1024, 1)
	for i := 0; i < 1024; i++ {
		m.Insert(sched.Item{Task: int32(i), Priority: uint32(i)})
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if it, ok := m.ApproxGetMin(); ok {
				m.Insert(it)
			}
		}
	})
}
