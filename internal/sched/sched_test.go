package sched

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

// fakeScheduler is a trivial LIFO scheduler used to test the wrappers without
// depending on the concrete implementations (which live in sub-packages).
type fakeScheduler struct {
	items []Item
}

func (f *fakeScheduler) Insert(it Item) { f.items = append(f.items, it) }

func (f *fakeScheduler) ApproxGetMin() (Item, bool) {
	if len(f.items) == 0 {
		return Item{}, false
	}
	it := f.items[len(f.items)-1]
	f.items = f.items[:len(f.items)-1]
	return it, true
}

func (f *fakeScheduler) Len() int    { return len(f.items) }
func (f *fakeScheduler) Empty() bool { return len(f.items) == 0 }

// exactFake returns items in exact priority order, for instrumentation tests.
type exactFake struct {
	items []Item
}

func (f *exactFake) Insert(it Item) { f.items = append(f.items, it) }

func (f *exactFake) ApproxGetMin() (Item, bool) {
	if len(f.items) == 0 {
		return Item{}, false
	}
	best := 0
	for i, it := range f.items {
		if it.Less(f.items[best]) {
			best = i
		}
	}
	it := f.items[best]
	f.items = append(f.items[:best], f.items[best+1:]...)
	return it, true
}

func (f *exactFake) Len() int    { return len(f.items) }
func (f *exactFake) Empty() bool { return len(f.items) == 0 }

func TestItemLess(t *testing.T) {
	cases := []struct {
		a, b Item
		want bool
	}{
		{Item{Task: 0, Priority: 1}, Item{Task: 0, Priority: 2}, true},
		{Item{Task: 0, Priority: 2}, Item{Task: 0, Priority: 1}, false},
		{Item{Task: 1, Priority: 5}, Item{Task: 2, Priority: 5}, true},
		{Item{Task: 2, Priority: 5}, Item{Task: 1, Priority: 5}, false},
		{Item{Task: 3, Priority: 5}, Item{Task: 3, Priority: 5}, false},
	}
	for _, tc := range cases {
		if got := tc.a.Less(tc.b); got != tc.want {
			t.Fatalf("%v.Less(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestKeyOrderIsLess pins the contract heap storage and MultiQueue hints
// rest on: the unsigned order of packed keys is exactly Item.Less, and a key
// unpacks to the item it came from — including negative task ids (whose
// sign bit a plain uint32 cast would sort last) and math.MaxUint32, the
// priority pagerank uses as its "no residual" sentinel.
func TestKeyOrderIsLess(t *testing.T) {
	agree := func(a, b Item) bool {
		return (a.Key() < b.Key()) == a.Less(b) && (b.Key() < a.Key()) == b.Less(a) &&
			ItemOfKey(a.Key()) == a && (a.Key() == b.Key()) == (a == b)
	}
	tasks := []int32{math.MinInt32, -2, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	priorities := []uint32{0, 1, math.MaxInt32, math.MaxInt32 + 1, math.MaxUint32 - 1, math.MaxUint32}
	var corners []Item
	for _, task := range tasks {
		for _, p := range priorities {
			corners = append(corners, Item{Task: task, Priority: p})
		}
	}
	for _, a := range corners {
		for _, b := range corners {
			if !agree(a, b) {
				t.Fatalf("Key and Less disagree on %v, %v (keys %#x, %#x)", a, b, a.Key(), b.Key())
			}
		}
	}
	// Random pairs, and pairs tied on priority so the task half decides.
	if err := quick.Check(func(a, b Item) bool {
		tied := Item{Task: b.Task, Priority: a.Priority}
		return agree(a, b) && agree(a, tied)
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestLockedDelegates(t *testing.T) {
	l := NewLocked(&fakeScheduler{})
	if !l.Empty() || l.Len() != 0 {
		t.Fatal("fresh locked scheduler not empty")
	}
	l.Insert(Item{Task: 1, Priority: 10})
	l.Insert(Item{Task: 2, Priority: 20})
	if l.Len() != 2 || l.Empty() {
		t.Fatal("locked scheduler size wrong after inserts")
	}
	it, ok := l.ApproxGetMin()
	if !ok || it.Task != 2 {
		t.Fatalf("locked scheduler returned %v, %v (LIFO inner expects task 2)", it, ok)
	}
}

func TestLockedConcurrentUse(t *testing.T) {
	l := NewLocked(&fakeScheduler{})
	const n = 10000
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				l.Insert(Item{Task: int32(i), Priority: uint32(i)})
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != n {
		t.Fatalf("Len = %d after concurrent inserts, want %d", l.Len(), n)
	}
	counts := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if _, ok := l.ApproxGetMin(); !ok {
					return
				}
				counts[w]++
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("concurrent drain delivered %d, want %d", total, n)
	}
}

func TestInstrumentedExactSchedulerHasRankOneNoInversions(t *testing.T) {
	const n = 200
	m := NewInstrumented(&exactFake{}, n)
	for i := n - 1; i >= 0; i-- {
		m.Insert(Item{Task: int32(i), Priority: uint32(i)})
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
	if metrics.MeanRank != 1 || metrics.MaxRank != 1 {
		t.Fatalf("exact scheduler rank metrics = %+v, want all ranks 1", metrics)
	}
	if metrics.MeanInversions != 0 || metrics.MaxInversions != 0 {
		t.Fatalf("exact scheduler inversion metrics = %+v, want 0", metrics)
	}
}

func TestInstrumentedLIFOMeasuresRelaxation(t *testing.T) {
	// A LIFO over priorities inserted in increasing order returns the worst
	// element first; ranks and inversions must reflect that.
	const n = 10
	m := NewInstrumented(&fakeScheduler{}, n)
	for i := 0; i < n; i++ {
		m.Insert(Item{Task: int32(i), Priority: uint32(i)})
	}
	// First removal is priority 9, rank 10.
	it, ok := m.ApproxGetMin()
	if !ok || it.Priority != 9 {
		t.Fatalf("first removal = %v", it)
	}
	metrics := m.Metrics()
	if metrics.MaxRank != 10 {
		t.Fatalf("MaxRank = %d, want 10", metrics.MaxRank)
	}
	// Drain the rest; the last removed (priority 0) suffered 9 inversions.
	for {
		if _, ok := m.ApproxGetMin(); !ok {
			break
		}
	}
	metrics = m.Metrics()
	if metrics.MaxInversions != 9 {
		t.Fatalf("MaxInversions = %d, want 9", metrics.MaxInversions)
	}
	if metrics.Removals != n {
		t.Fatalf("Removals = %d, want %d", metrics.Removals, n)
	}
}

func TestInstrumentedEmptyPassThrough(t *testing.T) {
	m := NewInstrumented(&fakeScheduler{}, 4)
	if _, ok := m.ApproxGetMin(); ok {
		t.Fatal("empty instrumented scheduler returned item")
	}
	if !m.Empty() || m.Len() != 0 {
		t.Fatal("empty instrumented scheduler misreports size")
	}
	if m.Metrics().Removals != 0 {
		t.Fatal("metrics recorded removals for failed gets")
	}
}

func TestInstrumentedReinsertionResetsBaseline(t *testing.T) {
	// An item that is removed and reinserted should only accumulate
	// inversions from its latest residence.
	m := NewInstrumented(&fakeScheduler{}, 10)
	m.Insert(Item{Task: 0, Priority: 0})
	m.Insert(Item{Task: 5, Priority: 5})
	// LIFO returns 5 first: inversion on 0.
	if it, _ := m.ApproxGetMin(); it.Priority != 5 {
		t.Fatal("unexpected order from fake LIFO")
	}
	// Reinsert 5, then remove it again (another inversion on 0).
	m.Insert(Item{Task: 5, Priority: 5})
	if it, _ := m.ApproxGetMin(); it.Priority != 5 {
		t.Fatal("unexpected order from fake LIFO")
	}
	// Now remove 0; it suffered 2 inversions total.
	if it, _ := m.ApproxGetMin(); it.Priority != 0 {
		t.Fatal("expected priority 0 last")
	}
	if got := m.Metrics().MaxInversions; got != 2 {
		t.Fatalf("MaxInversions = %d, want 2", got)
	}
}
