package exactheap

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
)

func TestEmptyHeap(t *testing.T) {
	h := New(0)
	if !h.Empty() || h.Len() != 0 {
		t.Fatal("new heap not empty")
	}
	if _, ok := h.ApproxGetMin(); ok {
		t.Fatal("ApproxGetMin on empty heap returned an item")
	}
	if _, ok := h.Peek(); ok {
		t.Fatal("Peek on empty heap returned an item")
	}
	// Negative capacity must not panic.
	_ = New(-1)
}

func TestHeapSortedDrain(t *testing.T) {
	h := New(16)
	priorities := []uint32{5, 1, 9, 3, 7, 0, 2, 8, 6, 4}
	for i, p := range priorities {
		h.Insert(sched.Item{Task: int32(i), Priority: p})
	}
	if h.Len() != len(priorities) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(priorities))
	}
	if top, ok := h.Peek(); !ok || top.Priority != 0 {
		t.Fatalf("Peek = %v, %v", top, ok)
	}
	var drained []uint32
	for !h.Empty() {
		it, ok := h.ApproxGetMin()
		if !ok {
			t.Fatal("ApproxGetMin returned false on non-empty heap")
		}
		drained = append(drained, it.Priority)
	}
	if !sort.SliceIsSorted(drained, func(i, j int) bool { return drained[i] < drained[j] }) {
		t.Fatalf("heap did not drain in sorted order: %v", drained)
	}
	if len(drained) != len(priorities) {
		t.Fatalf("drained %d items, inserted %d", len(drained), len(priorities))
	}
}

func TestHeapTiesBrokenByTask(t *testing.T) {
	h := New(4)
	h.Insert(sched.Item{Task: 9, Priority: 5})
	h.Insert(sched.Item{Task: 2, Priority: 5})
	h.Insert(sched.Item{Task: 4, Priority: 5})
	first, _ := h.ApproxGetMin()
	if first.Task != 2 {
		t.Fatalf("expected lowest task id to win ties, got task %d", first.Task)
	}
}

func TestHeapInterleavedInsertRemove(t *testing.T) {
	h := New(0)
	h.Insert(sched.Item{Task: 1, Priority: 10})
	h.Insert(sched.Item{Task: 2, Priority: 5})
	if it, _ := h.ApproxGetMin(); it.Priority != 5 {
		t.Fatalf("got priority %d, want 5", it.Priority)
	}
	h.Insert(sched.Item{Task: 3, Priority: 1})
	h.Insert(sched.Item{Task: 4, Priority: 20})
	if it, _ := h.ApproxGetMin(); it.Priority != 1 {
		t.Fatalf("got priority %d, want 1", it.Priority)
	}
	if it, _ := h.ApproxGetMin(); it.Priority != 10 {
		t.Fatalf("got priority %d, want 10", it.Priority)
	}
	if it, _ := h.ApproxGetMin(); it.Priority != 20 {
		t.Fatalf("got priority %d, want 20", it.Priority)
	}
	if !h.Empty() {
		t.Fatal("heap should be empty")
	}
}

func TestHeapMatchesSortModel(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(500)
		h := New(n)
		want := make([]uint32, n)
		for i := 0; i < n; i++ {
			p := r.Uint32() % 1000
			want[i] = p
			h.Insert(sched.Item{Task: int32(i), Priority: p})
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, w := range want {
			it, ok := h.ApproxGetMin()
			if !ok || it.Priority != w {
				return false
			}
		}
		return h.Empty()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// ascendingItems returns n items in label order: item i is task i at
// priority i, as the static framework seeds them.
func ascendingItems(n int) []sched.Item {
	items := make([]sched.Item, n)
	for i := range items {
		items[i] = sched.Item{Task: int32(i), Priority: uint32(i)}
	}
	return items
}

// model is the specification the heap is checked against: the held items as
// a slice kept sorted by Item.Less.
type model []sched.Item

func (m *model) insert(it sched.Item) {
	i := sort.Search(len(*m), func(i int) bool { return it.Less((*m)[i]) })
	*m = append(*m, sched.Item{})
	copy((*m)[i+1:], (*m)[i:])
	(*m)[i] = it
}

func (m *model) pop() sched.Item {
	it := (*m)[0]
	*m = (*m)[1:]
	return it
}

// checkAgainstModel decodes data into insert / pop / peek / batch-insert /
// batch-pop operations and applies each to a Heap and to the model: every
// popped item must be the model's minimum, and Len, Empty and Peek must
// agree after every operation. Items draw from a small range so keys tie and
// repeat; task ids are signed bytes and priority byte 255 stands for
// math.MaxUint32, the two corners of the packed key order.
func checkAgainstModel(t *testing.T, data []byte) {
	h := New(0)
	var m model
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	item := func() sched.Item {
		it := sched.Item{Priority: uint32(next()), Task: int32(int8(next()))}
		if it.Priority == 255 {
			it.Priority = math.MaxUint32
		}
		return it
	}
	popOne := func(got sched.Item) {
		if want := m.pop(); got != want {
			t.Fatalf("popped %v, model minimum %v", got, want)
		}
	}
	for len(data) > 0 {
		switch op := next(); op % 5 {
		case 0:
			it := item()
			h.Insert(it)
			m.insert(it)
		case 1:
			got, ok := h.ApproxGetMin()
			if ok != (len(m) > 0) {
				t.Fatalf("ApproxGetMin ok = %v with %d items in the model", ok, len(m))
			}
			if ok {
				popOne(got)
			}
		case 2:
			got, ok := h.Peek()
			if ok != (len(m) > 0) || (ok && got != m[0]) {
				t.Fatalf("Peek = %v, %v with model %v", got, ok, m)
			}
			if ok && h.MinKey() != m[0].Key() || !ok && h.MinKey() != EmptyKey {
				t.Fatalf("MinKey = %#x with model %v", h.MinKey(), m)
			}
		case 3:
			batch := make([]sched.Item, next()%9)
			for i := range batch {
				batch[i] = item()
				m.insert(batch[i])
			}
			h.InsertBatch(batch)
		case 4:
			out := make([]sched.Item, next()%9)
			n := h.ApproxPopBatch(out)
			if want := min(len(out), len(m)); n != want {
				t.Fatalf("ApproxPopBatch returned %d, want %d", n, want)
			}
			for _, got := range out[:n] {
				popOne(got)
			}
		}
		if h.Len() != len(m) || h.Empty() != (len(m) == 0) {
			t.Fatalf("Len/Empty = %d/%v, model holds %d", h.Len(), h.Empty(), len(m))
		}
	}
	for len(m) > 0 {
		got, _ := h.ApproxGetMin()
		popOne(got)
	}
	if !h.Empty() {
		t.Fatalf("heap holds %d items after the model drained", h.Len())
	}
}

// insertOps encodes single inserts of the given priorities (task = index).
func insertOps(priorities ...byte) []byte {
	var ops []byte
	for i, p := range priorities {
		ops = append(ops, 0, p, byte(i))
	}
	return ops
}

// handOffCases are the boundaries between the ascending run and the 4-ary
// heap, as operation streams for checkAgainstModel.
func handOffCases() map[string][]byte {
	var interleaved []byte
	for i := 0; i < 40; i++ {
		// Two ascending inserts, one below the run's tail, one pop.
		interleaved = append(interleaved, insertOps(byte(2*i), byte(2*i+1), byte(i))...)
		interleaved = append(interleaved, 1)
	}
	// Opcodes: 0 insert ⟨priority, task⟩, 1 pop, 2 peek, 3 batch-insert
	// ⟨count, items…⟩, 4 batch-pop ⟨count⟩.
	return map[string][]byte{
		"ascending then descending": insertOps(1, 2, 3, 4, 5, 6, 7, 8, 7, 6, 5, 4, 3, 2, 1, 0),
		"descending then ascending": insertOps(8, 7, 6, 5, 4, 3, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9),
		"interleaved with pops":     interleaved,
		// Eight copies of one item in a batch, popped in batches of 3 and 8.
		"equal keys": {3, 8, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 4, 3, 4, 8},
		// Tasks -128, -1, 0, 127 tied at priority 7, then a smaller priority.
		"negative tasks": {0, 7, 0x80, 0, 7, 0xff, 0, 7, 0, 0, 7, 0x7f, 0, 6, 3, 2, 4, 2},
		// Priority byte 255 is math.MaxUint32, at the largest and smallest task.
		"sentinel priority":     {0, 255, 0x7f, 0, 255, 0x80, 0, 0, 0, 2, 1, 2, 1, 2, 1, 2},
		"batch pop across both": append(insertOps(10, 20, 30, 5, 15, 25, 40), 4, 8, 4, 8),
	}
}

func TestHeapRunHeapHandOff(t *testing.T) {
	for name, ops := range handOffCases() {
		t.Run(name, func(t *testing.T) { checkAgainstModel(t, ops) })
	}
}

// FuzzHeapMatchesModel is the model-based check over arbitrary operation
// streams; CI runs it for ten seconds (make fuzz-smoke).
func FuzzHeapMatchesModel(f *testing.F) {
	for _, ops := range handOffCases() {
		f.Add(ops)
	}
	f.Fuzz(checkAgainstModel)
}

// TestRunThatNeverEmptiesStaysBounded: a stream of non-decreasing keys at a
// steady occupancy keeps the ascending run non-empty forever, so its consumed
// prefix must be compacted away (sched.DropDeadPrefix) rather than grow by
// one key per operation.
func TestRunThatNeverEmptiesStaysBounded(t *testing.T) {
	const occupancy = 64
	h := New(occupancy)
	h.InsertBatch(ascendingItems(occupancy))
	for i := occupancy; i < occupancy+1_000_000; i++ {
		it, ok := h.ApproxGetMin()
		if !ok || it.Priority != uint32(i-occupancy) {
			t.Fatalf("pop %d = %v, %v", i-occupancy, it, ok)
		}
		h.Insert(sched.Item{Task: int32(i), Priority: uint32(i)})
	}
	if len(h.heap) != 0 {
		t.Fatalf("%d monotone inserts reached the 4-ary heap", len(h.heap))
	}
	if c := cap(h.run); c > 5*occupancy {
		t.Fatalf("run backing array grew to cap %d at occupancy %d", c, occupancy)
	}
}

// TestNewPresizesBothParts: New(capacity) must hold capacity items without
// reallocating whatever their order, since the order decides which part
// holds them.
func TestNewPresizesBothParts(t *testing.T) {
	const n = 1024
	ascending := ascendingItems(n)
	descending := make([]sched.Item, n)
	for i := range descending {
		descending[i] = ascending[n-1-i]
	}
	var h *Heap
	construct := testing.AllocsPerRun(10, func() { h = New(n) })
	for name, items := range map[string][]sched.Item{"ascending": ascending, "descending": descending} {
		if allocs := testing.AllocsPerRun(10, func() {
			h = New(n)
			h.InsertBatch(items)
		}); allocs > construct {
			t.Fatalf("%s: New + InsertBatch of capacity items allocates %.0f times, New alone %.0f", name, allocs, construct)
		}
	}
}

func BenchmarkInsertDelete(b *testing.B) {
	h := New(1024)
	r := rng.New(1)
	for i := 0; i < 1024; i++ {
		h.Insert(sched.Item{Task: int32(i), Priority: r.Uint32()})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, _ := h.ApproxGetMin()
		it.Priority = r.Uint32()
		h.Insert(it)
	}
}

// BenchmarkChurn is the dynamic engine's use of a sub-queue at the
// occupancy it runs at: BenchmarkInsertDelete's 1 024 items (8 KB) never
// leave L1, while an executor sub-queue holds 12 000 to 25 000 and more and
// the service's job queue about 64. One operation pops the minimum and
// re-inserts it a random distance ahead (the hold model), so the occupancy
// and the key distribution are stationary.
func BenchmarkChurn(b *testing.B) {
	for _, occ := range []int{64, 32768} {
		b.Run(fmt.Sprintf("occ=%d", occ), func(b *testing.B) {
			h := New(occ)
			r := rng.New(1)
			for i := 0; i < occ; i++ {
				h.Insert(sched.Item{Task: int32(i), Priority: r.Uint32() % uint32(occ)})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it, _ := h.ApproxGetMin()
				it.Priority += 1 + r.Uint32()%uint32(2*occ)
				h.Insert(it)
			}
		})
	}
}

// BenchmarkPreloadDrain is the static framework's use: insert n items, then
// pop them all. n=32768 preloads in label order, as core.RunConcurrent seeds
// a sub-queue; shuffled preloads the same items in random order. One
// operation is one item inserted and popped.
func BenchmarkPreloadDrain(b *testing.B) {
	const n = 32768
	ascending := ascendingItems(n)
	shuffled := make([]sched.Item, n)
	for i, j := range rng.New(1).Perm(n) {
		shuffled[i] = ascending[j]
	}
	for _, c := range []struct {
		name  string
		items []sched.Item
	}{{"n=32768", ascending}, {"shuffled", shuffled}} {
		b.Run(c.name, func(b *testing.B) {
			h := New(n)
			b.ResetTimer()
			for i := 0; i < b.N; i += n {
				for _, it := range c.items {
					h.Insert(it)
				}
				for !h.Empty() {
					h.ApproxGetMin()
				}
			}
		})
	}
}
