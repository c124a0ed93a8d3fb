package graph

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// FromEdgeParts builds the CSR graph for n vertices from several edge-list
// shards in parallel. It is the construction path behind the parallel
// generators: each generator worker emits its own shard and no global edge
// sort or concatenation ever happens. Self-loops and duplicate edges (in
// either orientation, within or across shards) are dropped. Endpoints must
// be in [0, n).
//
// The build runs in four passes, all parallel across shards or vertex
// ranges: (1) per-shard degree counting, (2) a prefix sum that turns the
// counts into per-shard write cursors, (3) a scatter of both edge endpoints
// into the flat adjacency array, and (4) a per-vertex sort + dedup, with a
// compaction pass only when duplicates were actually present.
func FromEdgeParts(n int, parts [][]Edge) (*Graph, error) {
	return fromEdgeParts(n, parts, nil)
}

// fromEdgeParts is FromEdgeParts building into a caller-reserved adjacency
// array: adj is used when its capacity covers the build, and a fresh array
// is allocated otherwise.
func fromEdgeParts(n int, parts [][]Edge, adj []int32) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > MaxVertices {
		return nil, ErrTooManyVertices
	}
	var total int64
	for _, part := range parts {
		total += int64(len(part))
	}
	if 2*total > MaxAdjEntries {
		return nil, ErrTooManyEdges
	}
	return buildCSR(n, parts, adj), nil
}

// buildCSR is the shared CSR construction core behind FromEdges and
// FromEdgeParts. Inputs must already satisfy the size limits. adj, if its
// capacity suffices, becomes the flat adjacency array; pass nil to allocate.
func buildCSR(n int, parts [][]Edge, adj []int32) *Graph {
	chunks := splitEdgeChunks(parts, csrChunkCount(n, parts))
	nc := len(chunks)

	// Pass 1: one degree-counting array per chunk, so no chunk ever touches
	// another chunk's counters (no atomics, deterministic layout).
	counts := make([][]uint32, nc)
	parallelDo(nc, func(c int) {
		cnt := make([]uint32, n)
		for _, span := range chunks[c] {
			for _, e := range span {
				if e.U == e.V {
					continue
				}
				cnt[e.U]++
				cnt[e.V]++
			}
		}
		counts[c] = cnt
	})

	// Prefix sum: offsets over total (pre-dedup) degrees, and in the same
	// walk turn each chunk's count into the absolute cursor where that chunk
	// starts writing vertex v's entries.
	off := make([]uint32, n+1)
	var run uint64
	for v := 0; v < n; v++ {
		off[v] = uint32(run)
		for c := 0; c < nc; c++ {
			d := uint64(counts[c][v])
			counts[c][v] = uint32(run)
			run += d
		}
	}
	off[n] = uint32(run)

	// Pass 2: scatter both endpoints of every edge; chunks write disjoint
	// per-vertex regions, so this is race-free without synchronization.
	if uint64(cap(adj)) >= run {
		adj = adj[:run]
	} else {
		adj = make([]int32, run)
	}
	parallelDo(nc, func(c int) {
		cur := counts[c]
		for _, span := range chunks[c] {
			for _, e := range span {
				if e.U == e.V {
					continue
				}
				adj[cur[e.U]] = e.V
				cur[e.U]++
				adj[cur[e.V]] = e.U
				cur[e.V]++
			}
		}
	})

	// Pass 3: sort each adjacency list and dedup it in place, over vertex
	// ranges balanced by adjacency mass.
	newDeg := make([]uint32, n)
	ranges := vertexRanges(off, runtime.GOMAXPROCS(0))
	parallelDo(len(ranges), func(i int) {
		for v := ranges[i].lo; v < ranges[i].hi; v++ {
			nbrs := adj[off[v]:off[v+1]]
			slices.Sort(nbrs)
			w := 0
			for j, u := range nbrs {
				if j > 0 && u == nbrs[j-1] {
					continue
				}
				nbrs[w] = u
				w++
			}
			newDeg[v] = uint32(w)
		}
	})

	// Pass 4: if nothing was deduplicated the arrays are already final;
	// otherwise compact into fresh arrays using the post-dedup offsets.
	fin := make([]uint32, n+1)
	var run2 uint64
	for v := 0; v < n; v++ {
		fin[v] = uint32(run2)
		run2 += uint64(newDeg[v])
	}
	fin[n] = uint32(run2)
	if run2 == run {
		return &Graph{offsets: off, neighbors: adj, n: n, m: int64(run / 2)}
	}
	neighbors := make([]int32, run2)
	parallelDo(len(ranges), func(i int) {
		for v := ranges[i].lo; v < ranges[i].hi; v++ {
			copy(neighbors[fin[v]:fin[v+1]], adj[off[v]:off[v]+newDeg[v]])
		}
	})
	return &Graph{offsets: fin, neighbors: neighbors, n: n, m: int64(run2 / 2)}
}

// csrChunkCount picks how many counting chunks to use: one per available
// CPU, but never so many that the per-chunk count arrays outweigh the graph
// itself (each chunk costs 4*n bytes), and never more than one per 16k edges
// so tiny builds stay single-pass.
func csrChunkCount(n int, parts [][]Edge) int {
	var total int
	for _, part := range parts {
		total += len(part)
	}
	chunks := runtime.GOMAXPROCS(0)
	if byEdges := total / 16384; chunks > byEdges {
		chunks = byEdges
	}
	const countBudget = 1 << 27 // at most 512 MiB of uint32 counters
	if n > 0 {
		if byMem := countBudget / n; chunks > byMem {
			chunks = byMem
		}
	}
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}

// splitEdgeChunks regroups the input shards into at most target chunks of
// roughly equal edge count, without copying any edges. A chunk is a list of
// shard subslices, so a chunk can span shard boundaries and the chunk count
// never exceeds target (each chunk costs a 4*n-byte counter array in the
// degree-counting pass, so the bound is a memory budget, not a style
// preference).
func splitEdgeChunks(parts [][]Edge, target int) [][][]Edge {
	var total int
	for _, part := range parts {
		total += len(part)
	}
	if target < 1 {
		target = 1
	}
	per := (total + target - 1) / target
	if per < 1 {
		per = 1
	}
	chunks := make([][][]Edge, 0, target)
	var current [][]Edge
	room := per
	for _, part := range parts {
		for len(part) > 0 {
			k := room
			if k > len(part) {
				k = len(part)
			}
			current = append(current, part[:k])
			part = part[k:]
			room -= k
			if room == 0 && len(chunks)+1 < target {
				chunks = append(chunks, current)
				current = nil
				room = per
			}
		}
	}
	chunks = append(chunks, current)
	return chunks
}

// vertexRange is a half-open range of vertex ids assigned to one worker.
type vertexRange struct {
	lo, hi int
}

// vertexRanges splits [0, n) into at most workers ranges of roughly equal
// adjacency mass, so high-degree regions do not serialize on one goroutine.
func vertexRanges(off []uint32, workers int) []vertexRange {
	n := len(off) - 1
	if workers < 1 {
		workers = 1
	}
	total := uint64(off[n])
	per := total/uint64(workers) + 1
	ranges := make([]vertexRange, 0, workers)
	lo := 0
	var mass uint64
	for v := 0; v < n; v++ {
		mass += uint64(off[v+1] - off[v])
		if mass >= per || v == n-1 {
			ranges = append(ranges, vertexRange{lo: lo, hi: v + 1})
			lo = v + 1
			mass = 0
		}
	}
	if lo < n {
		ranges = append(ranges, vertexRange{lo: lo, hi: n})
	}
	if len(ranges) == 0 {
		ranges = append(ranges, vertexRange{lo: 0, hi: n})
	}
	return ranges
}

// parallelDo runs fn(0..jobs-1) on separate goroutines and waits for all of
// them. The single-job case runs inline to keep small builds allocation-lean.
func parallelDo(jobs int, fn func(job int)) {
	if jobs <= 1 {
		if jobs == 1 {
			fn(0)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(jobs)
	for j := 0; j < jobs; j++ {
		go func(j int) {
			defer wg.Done()
			fn(j)
		}(j)
	}
	wg.Wait()
}
