package coloring

import (
	"testing"

	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
)

// TestHotLoopsZeroAllocs asserts the coloring hot loops scan the oriented
// graph without allocating: Blocked always, and Process as long as the
// predecessor colors fit its on-stack scratch (true on bounded-degree inputs).
func TestHotLoopsZeroAllocs(t *testing.T) {
	r := rng.New(7)
	g, err := graph.GNM(2000, 20000, r)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	p, err := New(g, core.RandomLabels(n, r))
	if err != nil {
		t.Fatal(err)
	}
	inst := p.NewInstance(nil).(*Instance)

	// Process in task order first, so every predecessor Blocked and Process
	// read below is colored.
	if avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < n; i++ {
			inst.Process(i)
		}
	}); avg != 0 {
		t.Fatalf("Process allocated %.1f times per full scan, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < n; i++ {
			_ = inst.Blocked(i)
		}
	}); avg != 0 {
		t.Fatalf("Blocked allocated %.1f times per full scan, want 0", avg)
	}
}

// TestSequentialAllocsIndependentOfN asserts the oracle allocates a fixed
// number of times per run, not once per vertex: the count is the same on a
// graph ten times larger. The orientation is bound once, outside the run.
func TestSequentialAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int) float64 {
		r := rng.New(7)
		g, err := graph.GNM(n, int64(5*n), r)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(g, core.RandomLabels(n, r))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() { _ = p.Sequential() })
	}
	small, large := allocs(2_000), allocs(20_000)
	if small != large {
		t.Fatalf("Sequential allocated %.1f times at n=2000 and %.1f at n=20000, want equal", small, large)
	}
}
