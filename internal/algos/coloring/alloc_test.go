package coloring

import (
	"testing"

	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
)

// plainState is a minimal core.State for allocation tests.
type plainState struct {
	labels    []uint32
	processed []bool
}

func (s *plainState) NumTasks() int        { return len(s.labels) }
func (s *plainState) Processed(v int) bool { return s.processed[v] }
func (s *plainState) Label(v int) uint32   { return s.labels[v] }

// TestHotLoopsZeroAllocs asserts the coloring hot loops scan the CSR
// adjacency without allocating: Blocked always, and Process as long as the
// neighbor colors fit its on-stack scratch (true on bounded-degree inputs).
func TestHotLoopsZeroAllocs(t *testing.T) {
	r := rng.New(7)
	g, err := graph.GNM(2000, 20000, r)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	st := &plainState{labels: core.RandomLabels(n, r), processed: make([]bool, n)}
	inst := New(g).NewInstance(st).(*Instance)

	if avg := testing.AllocsPerRun(20, func() {
		for v := 0; v < n; v++ {
			_ = inst.Blocked(v)
		}
	}); avg != 0 {
		t.Fatalf("Blocked allocated %.1f times per full scan, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		for v := 0; v < n; v++ {
			inst.Process(v)
		}
	}); avg != 0 {
		t.Fatalf("Process allocated %.1f times per full scan, want 0", avg)
	}
}

// TestSequentialAllocsIndependentOfN asserts the oracle allocates a fixed
// number of times per run, not once per vertex: the count is the same on a
// graph ten times larger.
func TestSequentialAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int) float64 {
		r := rng.New(7)
		g, err := graph.GNM(n, int64(5*n), r)
		if err != nil {
			t.Fatal(err)
		}
		labels := core.RandomLabels(n, r)
		return testing.AllocsPerRun(5, func() { _ = Sequential(g, labels) })
	}
	small, large := allocs(2_000), allocs(20_000)
	if small != large {
		t.Fatalf("Sequential allocated %.1f times at n=2000 and %.1f at n=20000, want equal", small, large)
	}
}
