package graph

import (
	"testing"
	"testing/quick"

	"relaxsched/internal/rng"
)

func TestBuilderBasic(t *testing.T) {
	b, err := NewBuilder(5)
	if err != nil {
		t.Fatal(err)
	}
	mustAdd := func(u, v int) {
		t.Helper()
		if err := b.AddEdge(u, v); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
		}
	}
	mustAdd(0, 1)
	mustAdd(1, 2)
	mustAdd(2, 0)
	mustAdd(3, 4)
	mustAdd(4, 3) // duplicate (reversed)
	mustAdd(1, 1) // self-loop, silently dropped
	g := b.Build()
	if g.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(3, 4) {
		t.Fatal("missing expected edges")
	}
	if g.HasEdge(0, 3) || g.HasEdge(2, 2) {
		t.Fatal("unexpected edges present")
	}
	if d := g.Degree(1); d != 2 {
		t.Fatalf("Degree(1) = %d, want 2", d)
	}
	if got := g.MaxDegree(); got != 2 {
		t.Fatalf("MaxDegree = %d, want 2", got)
	}
	if got := g.AverageDegree(); got != 8.0/5.0 {
		t.Fatalf("AverageDegree = %v, want 1.6", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(-1); err == nil {
		t.Fatal("NewBuilder(-1) did not error")
	}
	b, err := NewBuilder(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 3); err == nil {
		t.Fatal("AddEdge out of range did not error")
	}
	if err := b.AddEdge(-1, 0); err == nil {
		t.Fatal("AddEdge negative did not error")
	}
	if err := b.AddEdges([]Edge{{0, 1}, {1, 5}}); err == nil {
		t.Fatal("AddEdges with invalid edge did not error")
	}
}

func TestFromEdgesDedupAndSort(t *testing.T) {
	edges := []Edge{{2, 1}, {1, 2}, {0, 2}, {2, 0}, {0, 1}, {3, 3}}
	g := FromEdges(4, edges)
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	nbrs := g.Neighbors(2)
	if len(nbrs) != 2 || nbrs[0] != 0 || nbrs[1] != 1 {
		t.Fatalf("Neighbors(2) = %v, want [0 1]", nbrs)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Degree(3) != 0 {
		t.Fatalf("isolated vertex has degree %d", g.Degree(3))
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	r := rng.New(11)
	g, err := GNM(50, 200, r)
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	if int64(len(edges)) != g.NumEdges() {
		t.Fatalf("Edges() returned %d edges, want %d", len(edges), g.NumEdges())
	}
	g2 := FromEdges(g.NumVertices(), edges)
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("rebuilding from Edges() changed edge count")
	}
	for v := 0; v < g.NumVertices(); v++ {
		a, b := g.Neighbors(v), g2.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree mismatch after round trip", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d adjacency mismatch after round trip", v)
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := FromEdges(0, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph not empty")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.AverageDegree() != 0 || g.MaxDegree() != 0 {
		t.Fatal("empty graph degree stats not zero")
	}
	if g.String() == "" {
		t.Fatal("String empty")
	}
}

func TestSubgraph(t *testing.T) {
	g := Complete(6)
	sub, orig := g.Subgraph(func(v int) bool { return v%2 == 0 })
	if sub.NumVertices() != 3 {
		t.Fatalf("subgraph has %d vertices, want 3", sub.NumVertices())
	}
	if sub.NumEdges() != 3 {
		t.Fatalf("subgraph has %d edges, want 3 (triangle)", sub.NumEdges())
	}
	want := []int32{0, 2, 4}
	for i, v := range orig {
		if v != want[i] {
			t.Fatalf("orig mapping = %v, want %v", orig, want)
		}
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStructuredGenerators(t *testing.T) {
	cases := []struct {
		name      string
		g         *Graph
		wantN     int
		wantM     int64
		wantMaxDg int
	}{
		{"complete5", Complete(5), 5, 10, 4},
		{"path4", Path(4), 4, 3, 2},
		{"cycle5", Cycle(5), 5, 5, 2},
		{"cycle2", Cycle(2), 2, 1, 1},
		{"star6", Star(6), 6, 5, 5},
		{"grid3x4", Grid(3, 4), 12, 17, 4},
		{"path1", Path(1), 1, 0, 0},
		{"complete0", Complete(0), 0, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.NumVertices(); got != tc.wantN {
				t.Fatalf("n = %d, want %d", got, tc.wantN)
			}
			if got := tc.g.NumEdges(); got != tc.wantM {
				t.Fatalf("m = %d, want %d", got, tc.wantM)
			}
			if got := tc.g.MaxDegree(); got != tc.wantMaxDg {
				t.Fatalf("max degree = %d, want %d", got, tc.wantMaxDg)
			}
			if err := tc.g.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGNPEdgeCountNearExpectation(t *testing.T) {
	r := rng.New(42)
	const n = 2000
	const p = 0.01
	g, err := GNP(n, p, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	expected := float64(n) * float64(n-1) / 2 * p
	got := float64(g.NumEdges())
	if got < expected*0.9 || got > expected*1.1 {
		t.Fatalf("GNP edge count %v deviates more than 10%% from expectation %v", got, expected)
	}
}

func TestGNPEdgeCases(t *testing.T) {
	r := rng.New(1)
	g, err := GNP(10, 0, r)
	if err != nil || g.NumEdges() != 0 {
		t.Fatalf("GNP(p=0) = %v edges, err=%v", g.NumEdges(), err)
	}
	g, err = GNP(6, 1, r)
	if err != nil || g.NumEdges() != 15 {
		t.Fatalf("GNP(p=1) = %v edges, err=%v; want complete graph", g.NumEdges(), err)
	}
	if _, err := GNP(-1, 0.5, r); err == nil {
		t.Fatal("GNP with negative n did not error")
	}
	if _, err := GNP(10, 1.5, r); err == nil {
		t.Fatal("GNP with p>1 did not error")
	}
	if _, err := GNP(10, -0.5, r); err == nil {
		t.Fatal("GNP with p<0 did not error")
	}
}

func TestParallelGNPMatchesExpectation(t *testing.T) {
	r := rng.New(7)
	const n = 3000
	const p = 0.005
	g, err := ParallelGNP(n, p, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	expected := float64(n) * float64(n-1) / 2 * p
	got := float64(g.NumEdges())
	if got < expected*0.9 || got > expected*1.1 {
		t.Fatalf("ParallelGNP edge count %v deviates more than 10%% from expectation %v", got, expected)
	}
}

func TestParallelGNPWorkerEdgeCases(t *testing.T) {
	r := rng.New(8)
	// workers <= 0 means "use GOMAXPROCS"; workers > n is clamped; both must
	// still produce valid graphs.
	for _, workers := range []int{0, 1, 100} {
		g, err := ParallelGNP(50, 0.1, workers, r)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
	if _, err := ParallelGNP(-1, 0.1, 2, r); err == nil {
		t.Fatal("negative n did not error")
	}
	if _, err := ParallelGNP(10, 2, 2, r); err == nil {
		t.Fatal("p>1 did not error")
	}
}

func TestGNMExactEdgeCount(t *testing.T) {
	r := rng.New(3)
	cases := []struct {
		n int
		m int64
	}{
		{10, 0}, {10, 45}, {100, 50}, {100, 2000}, {50, 1000}, {1000, 10000},
	}
	for _, tc := range cases {
		g, err := GNM(tc.n, tc.m, r)
		if err != nil {
			t.Fatalf("GNM(%d,%d): %v", tc.n, tc.m, err)
		}
		if g.NumEdges() != tc.m {
			t.Fatalf("GNM(%d,%d) produced %d edges", tc.n, tc.m, g.NumEdges())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("GNM(%d,%d): %v", tc.n, tc.m, err)
		}
	}
}

func TestGNMErrors(t *testing.T) {
	r := rng.New(3)
	if _, err := GNM(10, 46, r); err == nil {
		t.Fatal("GNM with too many edges did not error")
	}
	if _, err := GNM(10, -1, r); err == nil {
		t.Fatal("GNM with negative edges did not error")
	}
	if _, err := GNM(-1, 0, r); err == nil {
		t.Fatal("GNM with negative n did not error")
	}
}

func TestRMAT(t *testing.T) {
	r := rng.New(5)
	g, err := RMAT(10, 8, 0.57, 0.19, 0.19, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1024 {
		t.Fatalf("RMAT vertices = %d, want 1024", g.NumVertices())
	}
	if g.NumEdges() == 0 || g.NumEdges() > 8*1024 {
		t.Fatalf("RMAT edges = %d out of expected range", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := RMAT(-1, 8, 0.5, 0.2, 0.2, r); err == nil {
		t.Fatal("RMAT with negative scale did not error")
	}
	if _, err := RMAT(5, 8, 0.8, 0.3, 0.2, r); err == nil {
		t.Fatal("RMAT with invalid probabilities did not error")
	}
}

func TestGeneratedGraphsAlwaysValid(t *testing.T) {
	// Property: every generator output passes Validate for random parameters.
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(200)
		maxM := int64(n) * int64(n-1) / 2
		m := int64(r.Intn(int(maxM + 1)))
		gm, err := GNM(n, m, r)
		if err != nil || gm.Validate() != nil || gm.NumEdges() != m {
			return false
		}
		p := r.Float64()
		gp, err := GNP(n, p, r)
		if err != nil || gp.Validate() != nil {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGNP100kAvgDeg10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(i))
		g, err := GNP(100000, 10.0/100000, r)
		if err != nil {
			b.Fatal(err)
		}
		_ = g
	}
}

func BenchmarkFromEdges(b *testing.B) {
	r := rng.New(1)
	const n = 100000
	edges := make([]Edge, 0, 500000)
	for i := 0; i < 500000; i++ {
		edges = append(edges, Edge{U: int32(r.Intn(n)), V: int32(r.Intn(n))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FromEdges(n, edges)
	}
}
