package graph

import "runtime"

// DAG is an undirected graph oriented by a priority permutation: vertex v is
// renamed to its label, and each edge points from the lower label to the
// higher one. It is the dependency graph of a greedy algorithm that handles
// vertices in label order, laid out so that the algorithm's i-th step reads
// row i.
type DAG struct {
	offsets []uint32 // len n+1; row i is adj[offsets[i]:offsets[i+1]]
	split   []uint32 // len n; Preds(i) is adj[offsets[i]:split[i]]
	adj     []int32  // per row: the lower labels, then the higher labels
	maxIn   int
}

// orientInline is the adjacency size below which Orient runs on the calling
// goroutine: under it, starting the workers costs more than the pass.
const orientInline = 1 << 16

// Orient returns g oriented by labels, which must be a permutation of
// [0, g.NumVertices()). Row labels[v] of the result holds the labels of v's
// neighbors: those below labels[v] (its predecessors) first, then the rest.
// Neither part is sorted.
//
// The rows are filled in one pass over g in vertex order, so every row of g
// is read front to back; each is written once, to its label-order slot. The
// pass is parallel over vertex ranges once g has orientInline adjacency
// entries.
func Orient(g *Graph, labels []uint32) *DAG {
	n := g.n
	off := make([]uint32, n+1)
	for v := 0; v < n; v++ {
		off[labels[v]+1] = g.offsets[v+1] - g.offsets[v]
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	d := &DAG{offsets: off, split: make([]uint32, n), adj: make([]int32, len(g.neighbors))}

	ranges := []vertexRange{{lo: 0, hi: n}}
	if len(g.neighbors) >= orientInline {
		ranges = vertexRanges(g.offsets, runtime.GOMAXPROCS(0))
	}
	maxIn := make([]int, len(ranges))
	parallelDo(len(ranges), func(r int) {
		maxIn[r] = d.orientRange(g, labels, ranges[r])
	})
	for _, m := range maxIn {
		d.maxIn = max(d.maxIn, m)
	}
	return d
}

// orientRange fills the rows of the vertices in vr and returns their largest
// in-degree. The partition is branch-free, because whether a neighbor's label
// is lower is a coin flip on a random permutation: each entry is written at
// both ends of the unfilled part of the row and one end advances, so the
// other copy is overwritten later.
func (d *DAG) orientRange(g *Graph, labels []uint32, vr vertexRange) int {
	maxIn := 0
	for v := vr.lo; v < vr.hi; v++ {
		li := int32(labels[v])
		row := d.adj[d.offsets[li]:d.offsets[li+1]]
		lo, hi := 0, len(row)-1
		for _, u := range g.Neighbors(v) {
			lu := int32(labels[u])
			row[lo] = lu
			row[hi] = lu
			// Labels are below 2^31, so lu-li cannot overflow and its sign
			// bit is lu < li.
			pred := int(uint32(lu-li) >> 31)
			lo += pred
			hi -= 1 - pred
		}
		d.split[li] = d.offsets[li] + uint32(lo)
		maxIn = max(maxIn, lo)
	}
	return maxIn
}

// NumVertices returns the number of vertices.
func (d *DAG) NumVertices() int { return len(d.split) }

// Preds returns the labels of vertex i's neighbors that are below i, in no
// particular order. The slice aliases the DAG's storage and must not be
// modified.
func (d *DAG) Preds(i int) []int32 { return d.adj[d.offsets[i]:d.split[i]] }

// MaxInDegree returns the largest number of predecessors of any vertex, or 0
// if the DAG has no edges.
func (d *DAG) MaxInDegree() int { return d.maxIn }
