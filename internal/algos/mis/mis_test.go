package mis

import (
	"testing"
	"testing/quick"

	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/exactheap"
	"relaxsched/internal/sched/faaqueue"
	"relaxsched/internal/sched/kbounded"
	"relaxsched/internal/sched/multiqueue"
	"relaxsched/internal/sched/spraylist"
	"relaxsched/internal/sched/topk"
)

func TestSequentialOnPath(t *testing.T) {
	// Path 0-1-2-3-4 with identity labels: greedy picks 0, 2, 4.
	g := graph.Path(5)
	inSet := Sequential(g, core.IdentityLabels(5))
	want := []bool{true, false, true, false, true}
	if !Equal(inSet, want) {
		t.Fatalf("got %v, want %v", inSet, want)
	}
	if err := Verify(g, inSet); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialOnCompleteGraph(t *testing.T) {
	g := graph.Complete(10)
	r := rng.New(1)
	labels := core.RandomLabels(10, r)
	inSet := Sequential(g, labels)
	if err := Verify(g, inSet); err != nil {
		t.Fatal(err)
	}
	count := 0
	highest := -1
	for v, in := range inSet {
		if in {
			count++
			highest = v
		}
	}
	if count != 1 {
		t.Fatalf("MIS of a clique has %d vertices, want 1", count)
	}
	if labels[highest] != 0 {
		t.Fatalf("clique MIS picked vertex with label %d, want the top-priority vertex", labels[highest])
	}
}

func TestSequentialOnStarAndEmptyGraph(t *testing.T) {
	star := graph.Star(8)
	labels := core.IdentityLabels(8)
	inSet := Sequential(star, labels)
	if !inSet[0] {
		t.Fatal("center (highest priority) not selected")
	}
	for v := 1; v < 8; v++ {
		if inSet[v] {
			t.Fatalf("leaf %d selected alongside center", v)
		}
	}
	if err := Verify(star, inSet); err != nil {
		t.Fatal(err)
	}

	empty := graph.FromEdges(6, nil)
	inSet = Sequential(empty, core.IdentityLabels(6))
	for v, in := range inSet {
		if !in {
			t.Fatalf("isolated vertex %d not in MIS", v)
		}
	}
	if err := Verify(empty, inSet); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	g := graph.Path(4)
	cases := []struct {
		name  string
		inSet []bool
	}{
		{"wrong length", []bool{true}},
		{"not independent", []bool{true, true, false, true}},
		{"not maximal", []bool{true, false, false, false}},
		{"empty set on non-empty graph", []bool{false, false, false, false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := Verify(g, tc.inSet); err == nil {
				t.Fatalf("Verify accepted invalid set %v", tc.inSet)
			}
		})
	}
}

func TestRelaxedMatchesSequentialAcrossSchedulers(t *testing.T) {
	r := rng.New(7)
	g, err := graph.GNM(500, 2500, r)
	if err != nil {
		t.Fatal(err)
	}
	labels := core.RandomLabels(500, r)
	want := Sequential(g, labels)

	schedulers := map[string]sched.Scheduler{
		"exactheap":    exactheap.New(500),
		"topk16":       topk.New(16, 500, rng.New(1)),
		"multiqueue16": multiqueue.NewSequential(16, 500, rng.New(2)),
		"spraylist16":  spraylist.New(16, rng.New(3)),
		"kbounded16":   kbounded.New(16, 500),
	}
	for name, s := range schedulers {
		got, res, err := RunRelaxed(g, labels, s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !Equal(got, want) {
			t.Fatalf("%s: relaxed MIS differs from sequential MIS", name)
		}
		if err := Verify(g, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Processed+res.DeadSkips != 500 {
			t.Fatalf("%s: processed+skips = %d, want 500", name, res.Processed+res.DeadSkips)
		}
	}
}

func TestRelaxedExactSchedulerZeroExtraIterations(t *testing.T) {
	r := rng.New(11)
	g, err := graph.GNM(300, 1200, r)
	if err != nil {
		t.Fatal(err)
	}
	labels := core.RandomLabels(300, r)
	_, res, err := RunRelaxed(g, labels, exactheap.New(300))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtraIterations() != 0 {
		t.Fatalf("exact scheduler produced %d extra iterations", res.ExtraIterations())
	}
}

func TestTheorem2ExtraIterationsSmall(t *testing.T) {
	// Theorem 2: extra iterations depend only on k, not on n or m. We check
	// the weaker empirical statement that they stay a tiny fraction of n for
	// a moderately dense graph.
	r := rng.New(13)
	const n = 2000
	g, err := graph.GNM(n, 20000, r)
	if err != nil {
		t.Fatal(err)
	}
	labels := core.RandomLabels(n, r)
	const k = 16
	_, res, err := RunRelaxed(g, labels, multiqueue.NewSequential(k, n, rng.New(5)))
	if err != nil {
		t.Fatal(err)
	}
	extra := res.ExtraIterations()
	if extra > n/4 {
		t.Fatalf("extra iterations = %d, unexpectedly large relative to n=%d", extra, n)
	}
}

func TestConcurrentMatchesSequential(t *testing.T) {
	r := rng.New(17)
	g, err := graph.GNM(2000, 12000, r)
	if err != nil {
		t.Fatal(err)
	}
	labels := core.RandomLabels(2000, r)
	want := Sequential(g, labels)

	for _, workers := range []int{1, 2, 4, 8} {
		mq := multiqueue.NewConcurrent(4*workers, 2000, uint64(workers))
		got, res, err := RunConcurrent(g, labels, mq, core.Reinsert, core.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !Equal(got, want) {
			t.Fatalf("workers=%d: concurrent MIS differs from sequential", workers)
		}
		if err := Verify(g, got); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Processed+res.DeadSkips != 2000 {
			t.Fatalf("workers=%d: accounting off: %+v", workers, res)
		}
	}
}

func TestConcurrentExactFIFOWaitPolicy(t *testing.T) {
	r := rng.New(19)
	g, err := graph.GNM(1500, 9000, r)
	if err != nil {
		t.Fatal(err)
	}
	labels := core.RandomLabels(1500, r)
	want := Sequential(g, labels)
	got, _, err := RunConcurrent(g, labels, faaqueue.New(1500),
		core.Wait, core.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, want) {
		t.Fatal("exact-FIFO concurrent MIS differs from sequential")
	}
}

func TestDeterminismProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(300)
		maxM := int64(n) * int64(n-1) / 2
		m := int64(r.Intn(int(maxM/2 + 1)))
		g, err := graph.GNM(n, m, r)
		if err != nil {
			return false
		}
		labels := core.RandomLabels(n, r)
		want := Sequential(g, labels)
		if Verify(g, want) != nil {
			return false
		}
		k := 1 + r.Intn(32)
		got, _, err := RunRelaxed(g, labels, topk.New(k, n, r.Fork()))
		if err != nil {
			return false
		}
		return Equal(got, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInstanceAccessors(t *testing.T) {
	g := graph.Path(4)
	labels := core.IdentityLabels(4)
	res, err := core.RunRelaxed(New(g), labels, exactheap.New(4))
	if err != nil {
		t.Fatal(err)
	}
	inst := res.Instance.(*Instance)
	if inst.Size() != 2 {
		t.Fatalf("Size = %d, want 2", inst.Size())
	}
}

func BenchmarkRelaxedMIS10kVertices(b *testing.B) {
	r := rng.New(1)
	g, err := graph.GNM(10000, 50000, r)
	if err != nil {
		b.Fatal(err)
	}
	labels := core.RandomLabels(10000, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunRelaxed(g, labels, multiqueue.NewSequential(16, 10000, rng.New(uint64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}
