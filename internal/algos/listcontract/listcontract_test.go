package listcontract

import (
	"testing"
	"testing/quick"

	"relaxsched/internal/core"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/exactheap"
	"relaxsched/internal/sched/kbounded"
	"relaxsched/internal/sched/multiqueue"
	"relaxsched/internal/sched/spraylist"
	"relaxsched/internal/sched/topk"
)

func TestNewValidation(t *testing.T) {
	if _, err := New([]int32{1, 2, None}); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	cases := []struct {
		name string
		next []int32
	}{
		{"out of range", []int32{5, None}},
		{"self successor", []int32{0, None}},
		{"two predecessors", []int32{2, 2, None}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.next); err == nil {
				t.Fatalf("New accepted invalid list %v", tc.next)
			}
		})
	}
}

func TestNewChainStructure(t *testing.T) {
	p := NewChain(4)
	if p.NumTasks() != 4 {
		t.Fatalf("NumTasks = %d, want 4", p.NumTasks())
	}
	wantNext := []int32{1, 2, 3, None}
	wantPrev := []int32{None, 0, 1, 2}
	for i := range wantNext {
		if p.next[i] != wantNext[i] || p.prev[i] != wantPrev[i] {
			t.Fatalf("chain pointers wrong at node %d", i)
		}
	}
}

func TestSequentialChainIdentityOrder(t *testing.T) {
	// Contracting the chain 0-1-2-3 in identity order: node 0 sees
	// (None, 1); node 1 then has prev None so sees (None, 2); and so on.
	p := NewChain(4)
	cp, cn := Sequential(p, core.IdentityLabels(4))
	wantPrev := []int32{None, None, None, None}
	wantNext := []int32{1, 2, 3, None}
	if !Equal(cp, cn, wantPrev, wantNext) {
		t.Fatalf("got prev=%v next=%v, want prev=%v next=%v", cp, cn, wantPrev, wantNext)
	}
	if err := Verify(p, core.IdentityLabels(4), cp, cn); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialChainReverseOrder(t *testing.T) {
	// Contracting the chain back to front: every node still sees its
	// original predecessor (lower-indexed nodes are contracted later), while
	// its successor side has already been spliced away, so next is None.
	const n = 5
	p := NewChain(n)
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = uint32(n - 1 - i)
	}
	cp, cn := Sequential(p, labels)
	for v := 0; v < n; v++ {
		wantPrev := int32(v - 1)
		if v == 0 {
			wantPrev = None
		}
		if cp[v] != wantPrev || cn[v] != None {
			t.Fatalf("node %d recorded (%d,%d), want (%d,%d)", v, cp[v], cn[v], wantPrev, None)
		}
	}
	if err := Verify(p, labels, cp, cn); err != nil {
		t.Fatal(err)
	}
}

func TestCycleContraction(t *testing.T) {
	// A 3-cycle 0 -> 1 -> 2 -> 0 contracted in identity order.
	p, err := New([]int32{1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	labels := core.IdentityLabels(3)
	cp, cn := Sequential(p, labels)
	if err := Verify(p, labels, cp, cn); err != nil {
		t.Fatal(err)
	}
	// Node 0 sees its original neighbors (2, 1); node 1 then forms a 2-cycle
	// with 2; node 2 ends alone, seeing itself.
	if cp[0] != 2 || cn[0] != 1 {
		t.Fatalf("node 0 recorded (%d,%d), want (2,1)", cp[0], cn[0])
	}
	if cp[2] != 2 || cn[2] != 2 {
		t.Fatalf("node 2 recorded (%d,%d), want (2,2) after the cycle collapsed onto it", cp[2], cn[2])
	}
}

func TestRelaxedMatchesSequentialAcrossSchedulers(t *testing.T) {
	r := rng.New(5)
	const n = 500
	p := NewRandomList(n, r)
	labels := core.RandomLabels(n, r)
	wantPrev, wantNext := Sequential(p, labels)

	schedulers := map[string]sched.Scheduler{
		"exactheap":   exactheap.New(n),
		"topk8":       topk.New(8, n, rng.New(1)),
		"multiqueue8": multiqueue.NewSequential(8, n, rng.New(2)),
		"spraylist8":  spraylist.New(8, rng.New(3)),
		"kbounded8":   kbounded.New(8, n),
	}
	for name, s := range schedulers {
		gotPrev, gotNext, res, err := RunRelaxed(p, labels, s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !Equal(gotPrev, gotNext, wantPrev, wantNext) {
			t.Fatalf("%s: relaxed contraction differs from sequential", name)
		}
		if err := Verify(p, labels, gotPrev, gotNext); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Processed != n {
			t.Fatalf("%s: processed %d nodes, want %d", name, res.Processed, n)
		}
	}
}

func TestSparseDependenciesLowOverhead(t *testing.T) {
	// List contraction has m = n-1 dependency edges, so Theorem 1 predicts
	// the relaxation overhead stays small (poly(k), independent of n).
	r := rng.New(7)
	const n = 5000
	p := NewRandomList(n, r)
	labels := core.RandomLabels(n, r)
	_, _, res, err := RunRelaxed(p, labels, multiqueue.NewSequential(16, n, rng.New(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtraIterations() > n/10 {
		t.Fatalf("extra iterations = %d, unexpectedly large for a sparse dependency graph (n=%d)", res.ExtraIterations(), n)
	}
}

func TestConcurrentMatchesSequential(t *testing.T) {
	r := rng.New(9)
	const n = 3000
	p := NewRandomList(n, r)
	labels := core.RandomLabels(n, r)
	wantPrev, wantNext := Sequential(p, labels)
	for _, workers := range []int{1, 2, 4, 8} {
		mq := multiqueue.NewConcurrent(4*workers, n, uint64(workers))
		gotPrev, gotNext, _, err := RunConcurrent(p, labels, mq, core.Reinsert, core.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !Equal(gotPrev, gotNext, wantPrev, wantNext) {
			t.Fatalf("workers=%d: concurrent contraction differs from sequential", workers)
		}
		if err := Verify(p, labels, gotPrev, gotNext); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func TestMultipleDisjointLists(t *testing.T) {
	// Two disjoint chains: 0->1->2 and 3->4.
	p, err := New([]int32{1, 2, None, 4, None})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	labels := core.RandomLabels(5, r)
	wantPrev, wantNext := Sequential(p, labels)
	gotPrev, gotNext, _, err := RunRelaxed(p, labels, topk.New(4, 5, rng.New(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(gotPrev, gotNext, wantPrev, wantNext) {
		t.Fatal("relaxed contraction of disjoint lists differs from sequential")
	}
}

func TestVerifyCatchesBadRecords(t *testing.T) {
	p := NewChain(3)
	labels := core.IdentityLabels(3)
	cp, cn := Sequential(p, labels)
	if err := Verify(p, labels, cp[:2], cn); err == nil {
		t.Fatal("Verify accepted truncated record")
	}
	bad := append([]int32(nil), cp...)
	bad[2] = 99
	if err := Verify(p, labels, bad, cn); err == nil {
		t.Fatal("Verify accepted out-of-range neighbor")
	}
	// Node 2 claiming it observed node 0 (a higher-priority node) is a
	// violation of the contraction invariant.
	bad2 := append([]int32(nil), cp...)
	bad2[2] = 0
	if err := Verify(p, labels, bad2, cn); err == nil {
		t.Fatal("Verify accepted higher-priority observed neighbor")
	}
}

func TestDeterminismProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(300)
		p := NewRandomList(n, r)
		labels := core.RandomLabels(n, r)
		wantPrev, wantNext := Sequential(p, labels)
		gotPrev, gotNext, _, err := RunRelaxed(p, labels, multiqueue.NewSequential(1+r.Intn(16), n, r.Fork()))
		if err != nil {
			return false
		}
		if !Equal(gotPrev, gotNext, wantPrev, wantNext) {
			return false
		}
		return Verify(p, labels, gotPrev, gotNext) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	p, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	cp, cn := Sequential(p, nil)
	if len(cp) != 0 || len(cn) != 0 {
		t.Fatal("empty problem produced records")
	}

	single, err := New([]int32{None})
	if err != nil {
		t.Fatal(err)
	}
	cp, cn = Sequential(single, core.IdentityLabels(1))
	if cp[0] != None || cn[0] != None {
		t.Fatalf("singleton recorded (%d,%d), want (None,None)", cp[0], cn[0])
	}
}

func BenchmarkRelaxedListContraction(b *testing.B) {
	r := rng.New(1)
	const n = 20000
	p := NewRandomList(n, r)
	labels := core.RandomLabels(n, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := RunRelaxed(p, labels, multiqueue.NewSequential(16, n, rng.New(uint64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}
