package coloring

import (
	"errors"
	"testing"
	"testing/quick"

	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/exactheap"
	"relaxsched/internal/sched/kbounded"
	"relaxsched/internal/sched/multiqueue"
	"relaxsched/internal/sched/spraylist"
	"relaxsched/internal/sched/topk"
)

func TestSequentialOnPath(t *testing.T) {
	// Path with identity labels: colors alternate 0,1,0,1,...
	g := graph.Path(6)
	labels := core.IdentityLabels(6)
	colors := Sequential(g, labels)
	want := []int32{0, 1, 0, 1, 0, 1}
	if !Equal(colors, want) {
		t.Fatalf("got %v, want %v", colors, want)
	}
	if err := Verify(g, labels, colors); err != nil {
		t.Fatal(err)
	}
	if NumColors(colors) != 2 {
		t.Fatalf("NumColors = %d, want 2", NumColors(colors))
	}
}

func TestSequentialOnCompleteGraph(t *testing.T) {
	g := graph.Complete(7)
	r := rng.New(1)
	labels := core.RandomLabels(7, r)
	colors := Sequential(g, labels)
	if err := Verify(g, labels, colors); err != nil {
		t.Fatal(err)
	}
	if NumColors(colors) != 7 {
		t.Fatalf("clique coloring used %d colors, want 7", NumColors(colors))
	}
}

func TestSequentialOnStarAndEdgeless(t *testing.T) {
	star := graph.Star(9)
	labels := core.IdentityLabels(9)
	colors := Sequential(star, labels)
	if err := Verify(star, labels, colors); err != nil {
		t.Fatal(err)
	}
	if NumColors(colors) != 2 {
		t.Fatalf("star coloring used %d colors, want 2", NumColors(colors))
	}

	edgeless := graph.FromEdges(5, nil)
	colors = Sequential(edgeless, core.IdentityLabels(5))
	if NumColors(colors) != 1 {
		t.Fatalf("edgeless coloring used %d colors, want 1", NumColors(colors))
	}
	if NumColors(nil) != 0 {
		t.Fatal("NumColors(nil) != 0")
	}
}

func TestGreedyUsesAtMostMaxDegreePlusOneColors(t *testing.T) {
	r := rng.New(3)
	g, err := graph.GNM(400, 3000, r)
	if err != nil {
		t.Fatal(err)
	}
	labels := core.RandomLabels(400, r)
	colors := Sequential(g, labels)
	if err := Verify(g, labels, colors); err != nil {
		t.Fatal(err)
	}
	if NumColors(colors) > g.MaxDegree()+1 {
		t.Fatalf("greedy used %d colors, exceeds Δ+1 = %d", NumColors(colors), g.MaxDegree()+1)
	}
}

// referenceGreedy is the greedy coloring computed on g itself, in label
// order, with no oriented graph: the independent reference the oracle and
// Process are checked against. Slot c of its table holds v+1 while v is
// being colored if a neighbor of v has color c.
func referenceGreedy(g *graph.Graph, labels []uint32) []int32 {
	colors := make([]int32, g.NumVertices())
	for i := range colors {
		colors[i] = NoColor
	}
	taken := make([]int32, g.MaxDegree()+1)
	for _, task := range core.TasksByLabel(labels) {
		v := int(task)
		stamp := int32(v + 1)
		for _, u := range g.Neighbors(v) {
			if c := colors[u]; c >= 0 {
				taken[c] = stamp
			}
		}
		var c int32
		for taken[c] == stamp {
			c++
		}
		colors[v] = c
	}
	return colors
}

// TestSequentialMatchesFrameworkRun checks the oracle and the framework's
// sequential executor driving Process against referenceGreedy, on inputs
// that stress each side's color table: a random graph, a star (one vertex
// sees every other), an edgeless graph (every color is 0) and K_300, whose
// 300 colors overflow Process's 128-slot stack scratch and fill the
// oracle's MaxInDegree()+1 table to the last slot.
func TestSequentialMatchesFrameworkRun(t *testing.T) {
	r := rng.New(13)
	gnm, err := graph.GNM(2000, 12000, r)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]*graph.Graph{
		"gnm":          gnm,
		"star":         graph.Star(500),
		"edgeless":     graph.FromEdges(50, nil),
		"complete-300": graph.Complete(300),
	}
	for name, g := range inputs {
		t.Run(name, func(t *testing.T) {
			labels := core.RandomLabels(g.NumVertices(), rng.New(17))
			want := referenceGreedy(g, labels)
			p, err := New(g, labels)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.RunSequential(p, core.IdentityLabels(p.NumTasks()))
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(res.Instance.(*Instance).Colors(), want) {
				t.Fatalf("core.RunSequential over Process differs from the reference")
			}
			got := p.Sequential()
			if !Equal(got, want) {
				t.Fatalf("Sequential differs from the reference")
			}
			if err := Verify(g, labels, got); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	g := graph.Path(3)
	labels := core.IdentityLabels(3)
	cases := []struct {
		name   string
		colors []int32
	}{
		{"wrong length", []int32{0}},
		{"uncolored vertex", []int32{0, NoColor, 0}},
		{"adjacent same color", []int32{0, 0, 1}},
		{"not the smallest free color", []int32{0, 2, 0}},
		{"out-of-range color", []int32{0, 1, 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := Verify(g, labels, tc.colors); err == nil {
				t.Fatalf("Verify accepted invalid coloring %v", tc.colors)
			}
		})
	}
	if err := Verify(g, []uint32{0, 1, 1}, []int32{0, 1, 0}); !errors.Is(err, core.ErrBadPermutation) {
		t.Fatalf("Verify with repeated labels: got %v, want core.ErrBadPermutation", err)
	}
}

// TestVerifyRejectsProperNonGreedyColoring exchanges two color classes of
// the greedy coloring. The result is still a proper coloring, but not the
// one the sequential algorithm computes, so Verify must reject it.
func TestVerifyRejectsProperNonGreedyColoring(t *testing.T) {
	r := rng.New(21)
	g, err := graph.GNM(1000, 6000, r)
	if err != nil {
		t.Fatal(err)
	}
	labels := core.RandomLabels(1000, r)
	swapped := Sequential(g, labels)
	for v, c := range swapped {
		switch c {
		case 0:
			swapped[v] = 1
		case 1:
			swapped[v] = 0
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			if swapped[u] == swapped[v] {
				t.Fatalf("exchanging two color classes made %d and %d share a color", u, v)
			}
		}
	}
	if err := Verify(g, labels, swapped); err == nil {
		t.Fatal("Verify accepted a proper coloring that is not the greedy one")
	}
}

// TestBadPermutationRejected checks that every entry point binding a
// coloring problem rejects a label slice that is not a permutation of the
// vertices with core.ErrBadPermutation.
func TestBadPermutationRejected(t *testing.T) {
	g := graph.Path(4)
	bad := map[string][]uint32{
		"wrong length": {0, 1, 2},
		"out of range": {0, 1, 2, 4},
		"repeated":     {0, 1, 1, 3},
	}
	for name, labels := range bad {
		t.Run(name, func(t *testing.T) {
			if _, err := New(g, labels); !errors.Is(err, core.ErrBadPermutation) {
				t.Fatalf("New: got %v, want core.ErrBadPermutation", err)
			}
			if _, _, err := RunRelaxed(g, labels, exactheap.New(4)); !errors.Is(err, core.ErrBadPermutation) {
				t.Fatalf("RunRelaxed: got %v, want core.ErrBadPermutation", err)
			}
			mq := multiqueue.NewConcurrent(4, 4, 1)
			if _, _, err := RunConcurrent(g, labels, mq, core.Reinsert, core.Options{Workers: 1}); !errors.Is(err, core.ErrBadPermutation) {
				t.Fatalf("RunConcurrent: got %v, want core.ErrBadPermutation", err)
			}
		})
	}
}

func TestRelaxedMatchesSequentialAcrossSchedulers(t *testing.T) {
	r := rng.New(5)
	g, err := graph.GNM(400, 2400, r)
	if err != nil {
		t.Fatal(err)
	}
	labels := core.RandomLabels(400, r)
	want := Sequential(g, labels)

	schedulers := map[string]sched.Scheduler{
		"exactheap":   exactheap.New(400),
		"topk8":       topk.New(8, 400, rng.New(1)),
		"multiqueue8": multiqueue.NewSequential(8, 400, rng.New(2)),
		"spraylist8":  spraylist.New(8, rng.New(3)),
		"kbounded8":   kbounded.New(8, 400),
	}
	for name, s := range schedulers {
		got, _, err := RunRelaxed(g, labels, s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !Equal(got, want) {
			t.Fatalf("%s: relaxed coloring differs from sequential", name)
		}
		if err := Verify(g, labels, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestConcurrentMatchesSequential(t *testing.T) {
	r := rng.New(9)
	g, err := graph.GNM(1500, 9000, r)
	if err != nil {
		t.Fatal(err)
	}
	labels := core.RandomLabels(1500, r)
	want := Sequential(g, labels)
	for _, workers := range []int{1, 2, 4, 8} {
		mq := multiqueue.NewConcurrent(4*workers, 1500, uint64(workers))
		got, _, err := RunConcurrent(g, labels, mq, core.Reinsert, core.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !Equal(got, want) {
			t.Fatalf("workers=%d: concurrent coloring differs from sequential", workers)
		}
		if err := Verify(g, labels, got); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func TestCliqueWorstCaseStillDeterministic(t *testing.T) {
	// The paper uses coloring on a clique as the tightness example for
	// Theorem 1: only the highest-priority live vertex can ever be
	// processed, so relaxation wastes ~k iterations per vertex — but the
	// output must still be the sequential one.
	g := graph.Complete(60)
	r := rng.New(11)
	labels := core.RandomLabels(60, r)
	want := Sequential(g, labels)
	got, res, err := RunRelaxed(g, labels, topk.New(8, 60, rng.New(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, want) {
		t.Fatal("clique coloring differs from sequential")
	}
	if res.FailedDeletes == 0 {
		t.Fatal("expected failed deletes on a clique with a relaxed scheduler")
	}
}

func TestDeterminismProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(200)
		maxM := int64(n) * int64(n-1) / 2
		m := int64(r.Intn(int(maxM/3 + 1)))
		g, err := graph.GNM(n, m, r)
		if err != nil {
			return false
		}
		labels := core.RandomLabels(n, r)
		want := Sequential(g, labels)
		if Verify(g, labels, want) != nil {
			return false
		}
		got, _, err := RunRelaxed(g, labels, multiqueue.NewSequential(1+r.Intn(16), n, r.Fork()))
		if err != nil {
			return false
		}
		return Equal(got, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// sequentialSink keeps BenchmarkSequentialColoring's result live.
var sequentialSink []int32

// BenchmarkSequentialColoring measures the oracle every coloring run is
// checked against, on the 100k-vertex, 1M-edge G(n,p) input.
func BenchmarkSequentialColoring(b *testing.B) {
	const n = 100_000
	p := float64(2*1_000_000) / (float64(n) * float64(n-1))
	g, err := graph.ParallelGNP(n, p, 4, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	labels := core.RandomLabels(n, rng.New(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sequentialSink = Sequential(g, labels)
	}
}

func BenchmarkRelaxedColoring(b *testing.B) {
	r := rng.New(1)
	g, err := graph.GNM(5000, 25000, r)
	if err != nil {
		b.Fatal(err)
	}
	labels := core.RandomLabels(5000, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunRelaxed(g, labels, multiqueue.NewSequential(16, 5000, rng.New(uint64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}
