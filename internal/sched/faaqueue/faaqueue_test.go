package faaqueue

import (
	"sync"
	"testing"

	"relaxsched/internal/sched"
)

func TestFIFOOrderSequential(t *testing.T) {
	q := New(0)
	const n = 5000 // spans multiple segments
	for i := 0; i < n; i++ {
		q.Insert(sched.Item{Task: int32(i), Priority: uint32(i)})
	}
	if q.Len() != n {
		t.Fatalf("Len = %d, want %d", q.Len(), n)
	}
	for i := 0; i < n; i++ {
		it, ok := q.ApproxGetMin()
		if !ok {
			t.Fatalf("queue empty after %d dequeues, want %d items", i, n)
		}
		if it.Task != int32(i) || it.Priority != uint32(i) {
			t.Fatalf("dequeue %d returned %+v, want task %d", i, it, i)
		}
	}
	if _, ok := q.ApproxGetMin(); ok {
		t.Fatal("drained queue returned an item")
	}
	if !q.Empty() {
		t.Fatal("drained queue not empty")
	}
}

func TestEmptyQueue(t *testing.T) {
	q := New(10)
	if _, ok := q.ApproxGetMin(); ok {
		t.Fatal("empty queue returned an item")
	}
	if q.Len() != 0 || !q.Empty() {
		t.Fatal("empty queue misreports size")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	cases := []sched.Item{
		{Task: 0, Priority: 0},
		{Task: 1, Priority: 2},
		{Task: 1<<31 - 1, Priority: 1<<32 - 10},
		{Task: 123456, Priority: 654321},
	}
	for _, it := range cases {
		if got := unpack(pack(it)); got != it {
			t.Fatalf("round trip changed %+v to %+v", it, got)
		}
	}
}

func TestInterleavedInsertDequeue(t *testing.T) {
	q := New(0)
	next := int32(0)
	for round := 0; round < 200; round++ {
		for i := 0; i < 7; i++ {
			q.Insert(sched.Item{Task: next, Priority: uint32(next)})
			next++
		}
		for i := 0; i < 5; i++ {
			if _, ok := q.ApproxGetMin(); !ok {
				t.Fatal("unexpected empty during interleaving")
			}
		}
	}
	remaining := 0
	for {
		if _, ok := q.ApproxGetMin(); !ok {
			break
		}
		remaining++
	}
	if remaining != 200*2 {
		t.Fatalf("remaining = %d, want %d", remaining, 400)
	}
}

func TestConcurrentDrainDeliversEachItemOnce(t *testing.T) {
	const n = 50000
	const workers = 8
	q := New(n)
	for i := 0; i < n; i++ {
		q.Insert(sched.Item{Task: int32(i), Priority: uint32(i)})
	}
	var mu sync.Mutex
	delivered := make([]int, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]int32, 0, n/workers)
			for {
				it, ok := q.ApproxGetMin()
				if !ok {
					if q.Len() > 0 {
						continue // spurious empty under contention
					}
					break
				}
				local = append(local, it.Task)
			}
			mu.Lock()
			for _, task := range local {
				delivered[task]++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	for task, c := range delivered {
		if c != 1 {
			t.Fatalf("task %d delivered %d times", task, c)
		}
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	const perProducer = 10000
	const producers = 4
	const consumers = 4
	q := New(0)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Insert(sched.Item{Task: int32(p*perProducer + i), Priority: 1})
			}
		}(p)
	}
	var consumed atomic64
	done := make(chan struct{})
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				if _, ok := q.ApproxGetMin(); ok {
					consumed.add(1)
					continue
				}
				select {
				case <-done:
					// Producers finished; drain whatever is left.
					for {
						if _, ok := q.ApproxGetMin(); !ok {
							return
						}
						consumed.add(1)
					}
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	cwg.Wait()
	if got := consumed.load(); got != producers*perProducer {
		t.Fatalf("consumed %d items, want %d", got, producers*perProducer)
	}
}

// atomic64 is a tiny helper avoiding an import of sync/atomic in the test's
// hot loop signature.
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) {
	a.mu.Lock()
	a.v += d
	a.mu.Unlock()
}

func (a *atomic64) load() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v
}

func BenchmarkEnqueueDequeue(b *testing.B) {
	q := New(0)
	for i := 0; i < 1024; i++ {
		q.Insert(sched.Item{Task: int32(i), Priority: uint32(i)})
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if it, ok := q.ApproxGetMin(); ok {
				q.Insert(it)
			}
		}
	})
}
