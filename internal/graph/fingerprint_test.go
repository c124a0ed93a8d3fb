package graph

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"relaxsched/internal/rng"
)

// fingerprint is the FNV-64a hash of g's CSR arrays: every offset, then
// every neighbour, each as 4 little-endian bytes. Two graphs with equal
// fingerprints are, for any test's purpose, byte-identical inputs.
func fingerprint(g *Graph) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, o := range g.offsets {
		binary.LittleEndian.PutUint32(buf[:], o)
		h.Write(buf[:])
	}
	for _, u := range g.neighbors {
		binary.LittleEndian.PutUint32(buf[:], uint32(u))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// gnpP is the edge probability that gives m expected edges on n vertices,
// as the benchmark and the job service compute it.
func gnpP(n, m int) float64 {
	return 2 * float64(m) / (float64(n) * float64(n-1))
}

// TestGeneratedInputsArePinned fixes the exact graphs the generators
// produce for the benchmark's input shapes. Equal seeds must give
// byte-identical inputs across commits: the benchmark compares runs of two
// commits on "the same" graph, and the sequential-model counters it reports
// are exact counts on that graph. A change to the generators that alters
// RNG draws or edge order fails here. The values were recorded while the
// edge shards still grew by append; reserving them must not change a byte.
func TestGeneratedInputsArePinned(t *testing.T) {
	cases := []struct {
		name    string
		build   func() (*Graph, error)
		n       int
		m       int64
		wantFNV uint64
	}{
		{"parallel/200k-2M-seed1", func() (*Graph, error) {
			return ParallelGNP(200_000, gnpP(200_000, 2_000_000), 4, rng.New(1))
		}, 200_000, 1_998_172, 0xda66aab10736e64a},
		{"parallel/100k-1M-seed1", func() (*Graph, error) {
			return ParallelGNP(100_000, gnpP(100_000, 1_000_000), 4, rng.New(1))
		}, 100_000, 999_067, 0x3e617e45c603bb53},
		{"parallel/5k-50k-seed3", func() (*Graph, error) {
			return ParallelGNP(5_000, gnpP(5_000, 50_000), 4, rng.New(3))
		}, 5_000, 50_143, 0x5834216e3ed54f21},
		{"parallel/1000-5000-seed1", func() (*Graph, error) {
			return ParallelGNP(1_000, gnpP(1_000, 5_000), 4, rng.New(1))
		}, 1_000, 5_041, 0xdaef89c4f64d1af4},
		{"single/5k-50k-seed3", func() (*Graph, error) {
			return GNP(5_000, gnpP(5_000, 50_000), rng.New(3))
		}, 5_000, 49_884, 0xdf59300ff27da4a5},
		{"single/complete-p1", func() (*Graph, error) {
			return GNP(40, 1, rng.New(1))
		}, 40, 780, 0x84a8caeafb9d63f2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if g.NumVertices() != tc.n || g.NumEdges() != tc.m {
				t.Errorf("n=%d m=%d, want n=%d m=%d", g.NumVertices(), g.NumEdges(), tc.n, tc.m)
			}
			if got := fingerprint(g); got != tc.wantFNV {
				t.Errorf("fingerprint %#016x, want %#016x", got, tc.wantFNV)
			}
		})
	}
}

// TestGNPEdgeBound checks the reservation bound: exact for p = 0 and p = 1,
// never outgrown by the benchmark's four shards, and capped at the most
// edges a graph can hold however large the request.
func TestGNPEdgeBound(t *testing.T) {
	if got := gnpEdgeBound(1000, 0, 0, 1000); got != 0 {
		t.Errorf("p=0: bound %d, want 0", got)
	}
	if got := gnpEdgeBound(40, 1, 0, 40); got != 40*39/2 {
		t.Errorf("p=1: bound %d, want %d", got, 40*39/2)
	}
	if got := gnpEdgeBound(40, 1, 10, 20); got != 10*29-45 {
		t.Errorf("p=1, sources [10,20): bound %d, want %d", got, 10*29-45)
	}
	if got := gnpEdgeBound(MaxVertices, 0.5, 0, MaxVertices); got != MaxAdjEntries/2 {
		t.Errorf("over-limit: bound %d, want the cap %d", got, MaxAdjEntries/2)
	}
	const n = 200_000
	p := gnpP(n, 2_000_000)
	r := rng.New(1)
	for w := 0; w < 4; w++ {
		lo, hi := w*n/4, (w+1)*n/4
		edges := gnpEdgeRange(n, p, lo, hi, r.Fork())
		if bound := gnpEdgeBound(n, p, lo, hi); len(edges) > bound || cap(edges) != bound {
			t.Errorf("sources [%d,%d): %d edges in capacity %d, want at most the bound %d and no regrowth", lo, hi, len(edges), cap(edges), bound)
		}
	}
}
