package graph

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"relaxsched/internal/rng"
)

// GNP generates an Erdős–Rényi G(n, p) random graph: every unordered vertex
// pair is an edge independently with probability p. Generation uses
// geometric skip sampling so the cost is proportional to the number of edges
// rather than n^2.
func GNP(n int, p float64, r *rng.Rand) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("graph: edge probability %v out of [0,1]", p)
	}
	edges := gnpEdgeRange(n, p, 0, n, r)
	return FromEdges(n, edges), nil
}

// ParallelGNP generates a G(n, p) graph using workers goroutines, mirroring
// the paper's parallel graph generation (the paper generates its inputs with
// all 144 hardware threads regardless of the thread count under test).
// Each worker owns a contiguous range of source vertices and an independent
// random stream forked from r, and its edge shard feeds the parallel CSR
// builder directly — no global edge concatenation or sort.
func ParallelGNP(n int, p float64, workers int, r *rng.Rand) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("graph: edge probability %v out of [0,1]", p)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return GNP(n, p, r)
	}
	// The flat adjacency array is reserved before the edge shards, sized
	// from the same bound. The builder would otherwise allocate it after the
	// shards, as the build's largest allocation at the moment they are live;
	// in a process that builds graphs repeatedly, that placement grew the
	// heap by one more adjacency array in most runs (EXPERIMENTS.md, "Set-up
	// at memory speed").
	adj := make([]int32, 0, 2*gnpEdgeBound(n, p, 0, n))
	parts := make([][]Edge, workers)
	rands := make([]*rng.Rand, workers)
	for i := range rands {
		rands[i] = r.Fork()
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			parts[w] = gnpEdgeRange(n, p, lo, hi, rands[w])
		}(w, lo, hi)
	}
	wg.Wait()
	return fromEdgeParts(n, parts, adj)
}

// gnpEdgeRange samples G(n,p) edges (u, v) with u in [lo, hi) and v > u using
// geometric skips over the upper-triangular pair sequence. The edge slice is
// reserved once up front, so each edge is written once instead of being
// copied on every regrowth.
func gnpEdgeRange(n int, p float64, lo, hi int, r *rng.Rand) []Edge {
	if p == 0 || n < 2 {
		return nil
	}
	edges := make([]Edge, 0, gnpEdgeBound(n, p, lo, hi))
	if p == 1 {
		for u := lo; u < hi; u++ {
			for v := u + 1; v < n; v++ {
				edges = append(edges, Edge{U: int32(u), V: int32(v)})
			}
		}
		return edges
	}
	logq := math.Log1p(-p)
	for u := lo; u < hi; u++ {
		v := u // candidate neighbor cursor; next edge is at v + skip
		for {
			skip := 1 + int(math.Floor(math.Log(1-r.Float64())/logq))
			if skip < 1 {
				skip = 1
			}
			v += skip
			if v >= n {
				break
			}
			edges = append(edges, Edge{U: int32(u), V: int32(v)})
		}
	}
	return edges
}

// gnpEdgeBound is the number of edges to reserve for the part of G(n,p)
// with sources [lo, hi): that count is binomial over the part's vertex
// pairs, and the bound is its mean plus four standard deviations, so the
// part almost never outgrows it (p = 1 gives the exact count). It is capped
// at the most edges a graph can hold: an over-limit input still grows past
// the cap and fails the build with ErrTooManyEdges, rather than asking make
// for an impossible capacity.
func gnpEdgeBound(n int, p float64, lo, hi int) int {
	rows := float64(hi - lo)
	pairs := rows*float64(n-1) - rows*float64(lo+hi-1)/2
	want := math.Ceil(p*pairs + 4*math.Sqrt(p*(1-p)*pairs))
	if want > MaxAdjEntries/2 {
		want = MaxAdjEntries / 2
	}
	return int(want)
}

// GNM generates a uniform random graph with exactly n vertices and m distinct
// edges (a G(n, m) graph), matching the |V|/|E| grid of the paper's Table 1.
// It returns an error if m exceeds the number of distinct vertex pairs.
func GNM(n int, m int64, r *rng.Rand) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	maxEdges := int64(n) * int64(n-1) / 2
	if m < 0 || m > maxEdges {
		return nil, fmt.Errorf("graph: cannot place %d edges in a simple graph on %d vertices (max %d)", m, n, maxEdges)
	}
	if 2*m > MaxAdjEntries {
		return nil, ErrTooManyEdges
	}
	// For sparse requests sample pairs with rejection; for dense requests
	// (more than half of all pairs) sample the complement instead so the
	// rejection loop stays fast.
	if m > maxEdges/2 && maxEdges > 0 {
		exclude := sampleDistinctPairs(n, maxEdges-m, r)
		edges := make([]Edge, 0, m)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if !exclude[pairKey(u, v)] {
					edges = append(edges, Edge{U: int32(u), V: int32(v)})
				}
			}
		}
		return FromEdges(n, edges), nil
	}
	chosen := sampleDistinctPairs(n, m, r)
	edges := make([]Edge, 0, m)
	for key := range chosen {
		u, v := pairFromKey(key)
		edges = append(edges, Edge{U: int32(u), V: int32(v)})
	}
	return FromEdges(n, edges), nil
}

func pairKey(u, v int) uint64 {
	return uint64(u)<<32 | uint64(uint32(v))
}

func pairFromKey(key uint64) (int, int) {
	return int(key >> 32), int(uint32(key))
}

func sampleDistinctPairs(n int, count int64, r *rng.Rand) map[uint64]bool {
	chosen := make(map[uint64]bool, count)
	for int64(len(chosen)) < count {
		u := r.Intn(n)
		v := r.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		chosen[pairKey(u, v)] = true
	}
	return chosen
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	edges := make([]Edge, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, Edge{U: int32(u), V: int32(v)})
		}
	}
	return FromEdges(n, edges)
}

// Path returns the path graph 0-1-2-...-(n-1).
func Path(n int) *Graph {
	edges := make([]Edge, 0, n)
	for v := 0; v+1 < n; v++ {
		edges = append(edges, Edge{U: int32(v), V: int32(v + 1)})
	}
	return FromEdges(n, edges)
}

// Cycle returns the cycle graph on n vertices (n >= 3 for a proper cycle;
// smaller n degrades to a path).
func Cycle(n int) *Graph {
	edges := make([]Edge, 0, n)
	for v := 0; v+1 < n; v++ {
		edges = append(edges, Edge{U: int32(v), V: int32(v + 1)})
	}
	if n >= 3 {
		edges = append(edges, Edge{U: 0, V: int32(n - 1)})
	}
	return FromEdges(n, edges)
}

// Star returns the star graph with center 0 and n-1 leaves.
func Star(n int) *Graph {
	edges := make([]Edge, 0, n)
	for v := 1; v < n; v++ {
		edges = append(edges, Edge{U: 0, V: int32(v)})
	}
	return FromEdges(n, edges)
}

// Grid returns the rows x cols 2D grid graph (4-neighborhood), a common
// road-network-like workload for shortest paths.
func Grid(rows, cols int) *Graph {
	n := rows * cols
	id := func(r, c int) int32 { return int32(r*cols + c) }
	edges := make([]Edge, 0, 2*n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{U: id(r, c), V: id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, Edge{U: id(r, c), V: id(r+1, c)})
			}
		}
	}
	return FromEdges(n, edges)
}

// RMAT generates a recursive-matrix (R-MAT) style power-law graph with
// 2^scale vertices and approximately edgeFactor * 2^scale undirected edges.
// Probabilities (a, b, c) describe the recursive quadrant split (d = 1-a-b-c).
// Duplicate edges and self-loops generated by the process are dropped, so the
// final edge count can be slightly lower than requested.
func RMAT(scale int, edgeFactor int, a, b, c float64, r *rng.Rand) (*Graph, error) {
	if scale < 0 || scale > 30 {
		return nil, fmt.Errorf("graph: RMAT scale %d out of [0,30]", scale)
	}
	d := 1 - a - b - c
	if a < 0 || b < 0 || c < 0 || d < -1e-9 {
		return nil, fmt.Errorf("graph: invalid RMAT probabilities a=%v b=%v c=%v", a, b, c)
	}
	n := 1 << uint(scale)
	target := int64(edgeFactor) * int64(n)
	if target < 0 || 2*target > MaxAdjEntries {
		return nil, fmt.Errorf("graph: RMAT edge factor %d requests %d edges: %w", edgeFactor, target, ErrTooManyEdges)
	}
	edges := make([]Edge, 0, target)
	for i := int64(0); i < target; i++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			x := r.Float64()
			switch {
			case x < a:
				// top-left quadrant: no bits set
			case x < a+b:
				v |= 1 << uint(bit)
			case x < a+b+c:
				u |= 1 << uint(bit)
			default:
				u |= 1 << uint(bit)
				v |= 1 << uint(bit)
			}
		}
		if u != v {
			edges = append(edges, Edge{U: int32(u), V: int32(v)})
		}
	}
	return FromEdges(n, edges), nil
}
