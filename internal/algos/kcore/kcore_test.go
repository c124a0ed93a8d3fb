package kcore

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

func TestSequentialKnownGraphs(t *testing.T) {
	// A path has degeneracy 1, a cycle 2, a clique n-1, and a star 1.
	path := Sequential(graph.Path(5))
	for v, c := range path {
		if c != 1 {
			t.Fatalf("path core[%d] = %d, want 1", v, c)
		}
	}

	cycle := Sequential(graph.Cycle(6))
	for v, c := range cycle {
		if c != 2 {
			t.Fatalf("cycle core[%d] = %d, want 2", v, c)
		}
	}

	clique := Sequential(graph.Complete(5))
	for v, c := range clique {
		if c != 4 {
			t.Fatalf("clique core[%d] = %d, want 4", v, c)
		}
	}

	star := Sequential(graph.Star(7))
	for v, c := range star {
		if c != 1 {
			t.Fatalf("star core[%d] = %d, want 1", v, c)
		}
	}
}

func TestSequentialLollipop(t *testing.T) {
	// Triangle 0-1-2 with a pendant path 2-3-4: the triangle is the 2-core,
	// the tail has core number 1.
	g := graph.FromEdges(5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}, {U: 3, V: 4},
	})
	got := Sequential(g)
	want := []uint32{2, 2, 2, 1, 1}
	if !Equal(got, want) {
		t.Fatalf("core numbers = %v, want %v", got, want)
	}
	if d := Degeneracy(got); d != 2 {
		t.Fatalf("degeneracy = %d, want 2", d)
	}
	if err := Verify(g, got); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialEmptyAndIsolated(t *testing.T) {
	if got := Sequential(graph.FromEdges(0, nil)); len(got) != 0 {
		t.Fatalf("empty graph core numbers = %v", got)
	}
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}})
	got := Sequential(g)
	if !Equal(got, []uint32{1, 1, 0}) {
		t.Fatalf("isolated-vertex core numbers = %v", got)
	}
}

func TestRelaxedMatchesSequentialAcrossSchedulers(t *testing.T) {
	r := rng.New(3)
	g, err := graph.GNM(600, 4200, r)
	if err != nil {
		t.Fatal(err)
	}
	want := Sequential(g)

	schedulers := map[string]sched.Scheduler{
		"exactheap":   exactheap.New(600),
		"topk8":       topk.New(8, 600, rng.New(1)),
		"multiqueue8": multiqueue.NewSequential(8, 600, rng.New(2)),
		"spraylist8":  spraylist.New(8, rng.New(3)),
		"kbounded8":   kbounded.New(8, 600),
	}
	for name, s := range schedulers {
		got, st, err := RunRelaxed(g, s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !Equal(got, want) {
			t.Fatalf("%s: relaxed core numbers differ from the peeling oracle", name)
		}
		if st.Pops < int64(g.NumVertices()) {
			t.Fatalf("%s: fewer pops than vertices: %+v", name, st)
		}
	}
}

func TestConcurrentMatchesSequential(t *testing.T) {
	r := rng.New(11)
	g, err := graph.GNM(2000, 16000, r)
	if err != nil {
		t.Fatal(err)
	}
	want := Sequential(g)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, batch := range []int{0, 1} {
			mq := multiqueue.NewConcurrent(4*workers, 2000, uint64(workers+batch))
			got, st, err := RunConcurrent(g, mq, core.Options{Workers: workers, BatchSize: batch})
			if err != nil {
				t.Fatalf("workers=%d batch=%d: %v", workers, batch, err)
			}
			if !Equal(got, want) {
				t.Fatalf("workers=%d batch=%d: concurrent core numbers differ", workers, batch)
			}
			if err := Verify(g, got); err != nil {
				t.Fatalf("workers=%d batch=%d: %v", workers, batch, err)
			}
			if st.Pops < int64(g.NumVertices()) {
				t.Fatalf("workers=%d batch=%d: implausible stats %+v", workers, batch, st)
			}
		}
	}
}

func TestConcurrentExactFIFOMatches(t *testing.T) {
	// The FAA FIFO ignores priorities entirely — the fixpoint must still be
	// reached, just with a worse processing order.
	r := rng.New(19)
	g, err := graph.GNM(1200, 9000, r)
	if err != nil {
		t.Fatal(err)
	}
	want := Sequential(g)
	got, _, err := RunConcurrent(g, faaqueue.New(1200), core.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, want) {
		t.Fatal("FIFO-driven core numbers differ from the peeling oracle")
	}
}

func TestPowerLawCoreNumbers(t *testing.T) {
	// Hub-heavy degree distributions are the interesting case for k-core
	// (the workload peels the fringe before the dense center).
	r := rng.New(7)
	g, err := graph.PowerLaw(3000, 8, 2.5, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	want := Sequential(g)
	mq := multiqueue.NewConcurrent(8, g.NumVertices(), 5)
	got, _, err := RunConcurrent(g, mq, core.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, want) {
		t.Fatal("power-law core numbers differ from the peeling oracle")
	}
}

func TestValidation(t *testing.T) {
	g := graph.Path(3)
	if _, _, err := RunRelaxed(g, nil); err == nil {
		t.Fatal("nil scheduler accepted by RunRelaxed")
	}
	if _, _, err := RunConcurrent(g, nil, core.Options{Workers: 2}); err == nil {
		t.Fatal("nil scheduler accepted by RunConcurrent")
	}
	if _, _, err := RunConcurrent(g, faaqueue.New(3), core.Options{Workers: 0}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, _, err := RunConcurrent(g, faaqueue.New(3), core.Options{Workers: 1, BatchSize: -2}); err == nil {
		t.Fatal("negative batch accepted")
	}
	if err := Verify(g, []uint32{1}); err == nil {
		t.Fatal("Verify accepted truncated core numbers")
	}
	if err := Verify(g, []uint32{1, 9, 1}); err == nil {
		t.Fatal("Verify accepted wrong core numbers")
	}
}

func TestDeterministicResultProperty(t *testing.T) {
	// Property: the relaxed fixpoint always reproduces the peeling oracle,
	// for random graphs and relaxation factors.
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(150)
		maxM := int64(n) * int64(n-1) / 2
		m := int64(r.Intn(int(maxM/2 + 1)))
		g, err := graph.GNM(n, m, r)
		if err != nil {
			return false
		}
		want := Sequential(g)
		got, _, err := RunRelaxed(g, topk.New(1+r.Intn(16), n, r.Fork()))
		if err != nil {
			return false
		}
		if !Equal(got, want) {
			return false
		}
		mq := multiqueue.NewConcurrent(4, n, seed)
		cgot, _, err := RunConcurrent(g, mq, core.Options{Workers: 1 + r.Intn(4), BatchSize: r.Intn(3)})
		if err != nil {
			return false
		}
		return Equal(cgot, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSequentialKCore(b *testing.B) {
	r := rng.New(1)
	g, err := graph.GNM(20000, 100000, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sequential(g)
	}
}

func BenchmarkConcurrentKCore(b *testing.B) {
	r := rng.New(1)
	g, err := graph.GNM(20000, 100000, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mq := multiqueue.NewConcurrent(4, g.NumVertices(), uint64(i)+1)
		if _, _, err := RunConcurrent(g, mq, core.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
