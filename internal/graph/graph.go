// Package graph provides the graph substrate used by every algorithm in this
// library: a compact CSR (compressed sparse row) representation of undirected
// graphs, parallel builders, random and structured generators, the line-graph
// transformation used to reduce maximal matching to MIS, edge-list I/O, and
// deterministic edge weights for shortest-path workloads.
//
// Vertices are dense integers in [0, N). Graphs are simple (no self-loops,
// no parallel edges) and undirected; each undirected edge {u, v} appears in
// the adjacency of both endpoints.
//
// The CSR core is a single flat offsets []uint32 / neighbors []int32 pair:
// the adjacency of v is neighbors[offsets[v]:offsets[v+1]], sorted. The
// 32-bit offsets halve the index-array footprint relative to 64-bit offsets,
// which keeps more of the hot index data in cache on million-vertex graphs,
// at the cost of capping the adjacency array at MaxAdjEntries entries.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// MaxVertices is the largest supported vertex count. Vertex ids are stored as
// int32 in adjacency arrays to halve memory traffic on large graphs.
const MaxVertices = 1 << 31

// MaxAdjEntries is the largest supported length of the flat adjacency array
// (twice the number of undirected edges), imposed by the 32-bit offsets.
const MaxAdjEntries = 1<<32 - 1

// Edge is an undirected edge between vertices U and V.
type Edge struct {
	U, V int32
}

// Graph is an immutable undirected graph in CSR form.
type Graph struct {
	offsets   []uint32 // len n+1; adjacency of v is neighbors[offsets[v]:offsets[v+1]]
	neighbors []int32  // concatenated sorted adjacency lists, length 2*m
	n         int
	m         int64
}

// ErrTooManyVertices is returned when a requested graph exceeds MaxVertices.
var ErrTooManyVertices = errors.New("graph: vertex count exceeds MaxVertices")

// ErrTooManyEdges is returned when a graph would need more than MaxAdjEntries
// adjacency entries.
var ErrTooManyEdges = errors.New("graph: adjacency entries exceed MaxAdjEntries")

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int64 { return g.m }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice aliases
// the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.neighbors[g.offsets[v]:g.offsets[v+1]]
}

// AdjOffset returns the index into the flat adjacency/weight arrays at which
// v's adjacency list begins. It is used by weighted algorithms to look up the
// weight aligned with a neighbor entry.
func (g *Graph) AdjOffset(v int) int { return int(g.offsets[v]) }

// NumAdjEntries returns the length of the flat adjacency array (2 * NumEdges
// for a simple undirected graph).
func (g *Graph) NumAdjEntries() int { return len(g.neighbors) }

// HasEdge reports whether {u, v} is an edge, using binary search on the
// sorted adjacency list of the lower-degree endpoint.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= int32(v) })
	return i < len(nbrs) && nbrs[i] == int32(v)
}

// Edges returns all undirected edges with U < V, in sorted order.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.m)
	for v := 0; v < g.n; v++ {
		for _, u := range g.Neighbors(v) {
			if int32(v) < u {
				edges = append(edges, Edge{U: int32(v), V: u})
			}
		}
	}
	return edges
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// AverageDegree returns the average vertex degree.
func (g *Graph) AverageDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(2*g.m) / float64(g.n)
}

// String returns a short human-readable description of the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d avgdeg=%.2f}", g.n, g.m, g.AverageDegree())
}

// Validate checks internal CSR invariants: monotone offsets, sorted adjacency
// lists without duplicates or self-loops, and symmetry (u in adj(v) iff v in
// adj(u)). It is used by tests and by ReadEdgeList on untrusted input.
func (g *Graph) Validate() error {
	if len(g.offsets) != g.n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.offsets), g.n+1)
	}
	if g.offsets[0] != 0 || int(g.offsets[g.n]) != len(g.neighbors) {
		return fmt.Errorf("graph: offsets endpoints [%d,%d] do not match adjacency length %d",
			g.offsets[0], g.offsets[g.n], len(g.neighbors))
	}
	if int64(len(g.neighbors)) != 2*g.m {
		return fmt.Errorf("graph: adjacency length %d, want 2*m = %d", len(g.neighbors), 2*g.m)
	}
	for v := 0; v < g.n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
		nbrs := g.Neighbors(v)
		for i, u := range nbrs {
			if int(u) < 0 || int(u) >= g.n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if int(u) == v {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if i > 0 && nbrs[i-1] >= u {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted at position %d", v, i)
			}
			if !g.HasEdge(int(u), v) {
				return fmt.Errorf("graph: asymmetric edge (%d,%d)", v, u)
			}
		}
	}
	return nil
}

// Builder accumulates edges and produces an immutable Graph. Self-loops and
// duplicate edges are dropped during Build. The zero value is not usable; use
// NewBuilder.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) (*Builder, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > MaxVertices {
		return nil, ErrTooManyVertices
	}
	return &Builder{n: n}, nil
}

// AddEdge records the undirected edge {u, v}. Out-of-range endpoints are
// rejected; self-loops are silently ignored (they are meaningless for the
// algorithms in this library).
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return nil
	}
	b.edges = append(b.edges, Edge{U: int32(u), V: int32(v)})
	return nil
}

// AddEdges records a batch of edges, stopping at the first invalid one.
func (b *Builder) AddEdges(edges []Edge) error {
	for _, e := range edges {
		if err := b.AddEdge(int(e.U), int(e.V)); err != nil {
			return err
		}
	}
	return nil
}

// Build produces the immutable CSR graph. The builder can be reused after
// Build; its pending edges are retained.
func (b *Builder) Build() *Graph {
	return FromEdges(b.n, b.edges)
}

// FromEdges builds a graph on n vertices from an edge list. Self-loops,
// duplicates, and reversed duplicates are removed. Endpoints are assumed to
// be in range (use Builder for validated construction). It panics if the
// graph would exceed MaxAdjEntries; use FromEdgeParts for a checked build.
func FromEdges(n int, edges []Edge) *Graph {
	if 2*int64(len(edges)) > MaxAdjEntries {
		panic(ErrTooManyEdges)
	}
	return buildCSR(n, [][]Edge{edges}, nil)
}

// Subgraph returns the subgraph induced by keep (a vertex predicate), with
// vertices renumbered densely in increasing original order. It also returns
// the mapping from new vertex ids to original ids.
func (g *Graph) Subgraph(keep func(v int) bool) (*Graph, []int32) {
	remap := make([]int32, g.n)
	orig := make([]int32, 0, g.n)
	for v := 0; v < g.n; v++ {
		if keep(v) {
			remap[v] = int32(len(orig))
			orig = append(orig, int32(v))
		} else {
			remap[v] = -1
		}
	}
	var edges []Edge
	for v := 0; v < g.n; v++ {
		if remap[v] < 0 {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if int32(v) < u && remap[u] >= 0 {
				edges = append(edges, Edge{U: remap[v], V: remap[u]})
			}
		}
	}
	return FromEdges(len(orig), edges), orig
}
