package graph

import (
	"runtime"
	"slices"
	"testing"

	"relaxsched/internal/rng"
)

// randomLabels returns a uniformly random permutation of [0, n), as a
// priority label per vertex.
func randomLabels(n int, r *rng.Rand) []uint32 {
	labels := make([]uint32, n)
	for pos, v := range r.Perm(n) {
		labels[v] = uint32(pos)
	}
	return labels
}

// checkOrient asserts that Orient(g, labels) is g renamed by labels: row i
// holds exactly the labels of vertex labels⁻¹(i)'s neighbors, its Preds
// are the ones below i, and so every edge appears exactly once among all
// Preds, in the row of its larger label.
func checkOrient(t *testing.T, g *Graph, labels []uint32) {
	t.Helper()
	d := Orient(g, labels)
	n := g.NumVertices()
	if d.NumVertices() != n {
		t.Fatalf("NumVertices = %d, want %d", d.NumVertices(), n)
	}
	vertexOf := make([]int, n)
	for v, l := range labels {
		vertexOf[l] = v
	}
	var preds int64
	maxIn := 0
	for i := 0; i < n; i++ {
		v := vertexOf[i]
		row := slices.Clone(d.adj[d.offsets[i]:d.offsets[i+1]])
		if len(row) != g.Degree(v) {
			t.Fatalf("row %d has %d entries, vertex %d has degree %d", i, len(row), v, g.Degree(v))
		}
		want := make([]int32, 0, len(row))
		for _, u := range g.Neighbors(v) {
			want = append(want, int32(labels[u]))
		}
		slices.Sort(row)
		slices.Sort(want)
		if !slices.Equal(row, want) {
			t.Fatalf("row %d = %v, want the neighbor labels %v", i, row, want)
		}
		p := d.Preds(i)
		for _, j := range p {
			if int(j) >= i {
				t.Fatalf("Preds(%d) holds %d, not below %d", i, j, i)
			}
		}
		if below, _ := slices.BinarySearch(want, int32(i)); len(p) != below {
			t.Fatalf("Preds(%d) has %d entries, %d neighbor labels are below %d", i, len(p), below, i)
		}
		preds += int64(len(p))
		maxIn = max(maxIn, len(p))
	}
	if preds != g.NumEdges() {
		t.Fatalf("Preds hold %d edges, graph has %d", preds, g.NumEdges())
	}
	if d.MaxInDegree() != maxIn {
		t.Fatalf("MaxInDegree = %d, largest Preds has %d", d.MaxInDegree(), maxIn)
	}
}

// TestOrientIsomorphism checks Orient, under the identity and three random
// permutations, on inputs from both of its paths: those under orientInline
// adjacency entries run inline, while K_300 (89 700 entries) and the larger
// G(n,m) take the parallel pass, run here on four vertex ranges whatever the
// machine's CPU count.
func TestOrientIsomorphism(t *testing.T) {
	r := rng.New(41)
	gnm, err := GNM(2000, 12000, r)
	if err != nil {
		t.Fatal(err)
	}
	bigGNM, err := GNM(40_000, 200_000, r)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name     string
		g        *Graph
		parallel bool
	}{
		{"gnm", gnm, false},
		{"star", Star(500), false},
		{"edgeless", FromEdges(50, nil), false},
		{"empty", FromEdges(0, nil), false},
		{"grid", Grid(40, 50), false},
		{"complete-300", Complete(300), true},
		{"gnm-40k", bigGNM, true},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			if got := in.g.NumAdjEntries() >= orientInline; got != in.parallel {
				t.Fatalf("input takes the parallel pass: %t, want %t", got, in.parallel)
			}
			identity := make([]uint32, in.g.NumVertices())
			for v := range identity {
				identity[v] = uint32(v)
			}
			checkOrient(t, in.g, identity)
			for seed := uint64(1); seed <= 3; seed++ {
				checkOrient(t, in.g, randomLabels(in.g.NumVertices(), rng.New(seed)))
			}
		})
	}
}

// BenchmarkOrient measures orienting the exec-static input, G(200k, 2M),
// by a random permutation: what greedy coloring pays once at bind.
func BenchmarkOrient(b *testing.B) {
	const n = 200_000
	p := float64(2*2_000_000) / (float64(n) * float64(n-1))
	g, err := ParallelGNP(n, p, runtime.GOMAXPROCS(0), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	labels := randomLabels(n, rng.New(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := Orient(g, labels); d.NumVertices() != n {
			b.Fatal("bad DAG")
		}
	}
}
