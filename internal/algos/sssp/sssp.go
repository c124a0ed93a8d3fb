// Package sssp implements single-source shortest paths with priority
// schedulers: exact sequential Dijkstra, a relaxed sequential-model variant,
// a concurrent variant driven by a relaxed scheduler, and Δ-stepping-style
// bucketed variants that trade priority precision for scheduler throughput.
//
// SSSP is the classic motivating example for relaxed priority scheduling
// (the paper cites it as the standard application of SprayLists and
// MultiQueues) but it does not fit the deterministic framework of package
// core: task priorities are tentative distances, which change during the
// execution, so the required priority permutation cannot be drawn uniformly
// at random up front. It is instead expressed as a core.DynamicProblem and
// executed by the dynamic-priority engine (core.RunDynamic /
// core.RunDynamicConcurrent). Correctness is preserved because distance
// labels only ever decrease and every improvement re-inserts the vertex; the
// cost of relaxation shows up as wasted (stale) queue pops rather than as
// failed deletes. This package therefore lives beside the framework as the
// non-deterministic counterpart that the paper contrasts against.
//
// The Δ-stepping variants (RunRelaxedDelta, RunConcurrentDelta) divide
// priorities by a bucket width before they reach the scheduler, trading
// priority precision for cheaper, more collision-friendly scheduling; Δ = 1
// reproduces exact distance priorities. The workload registers as "sssp" in
// internal/workload (input: random edge weights in [1, 100]; wasted work:
// stale pops), which is how cmd/relaxrun, cmd/relaxbench and internal/bench
// reach it.
package sssp

import (
	"fmt"
	"math"
	"sync/atomic"

	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/sched"
)

// Unreachable is the distance label of vertices not reachable from the
// source.
const Unreachable = uint32(math.MaxUint32)

// Stats counts the work performed by a shortest-path execution.
type Stats struct {
	// Pops is the number of items removed from the scheduler.
	Pops int64
	// StalePops is the number of removed items whose distance was already
	// outdated (the relaxed analogue of a wasted iteration).
	StalePops int64
	// Relaxations is the number of edge relaxations that improved a
	// distance.
	Relaxations int64
	// EmptyPolls is the number of scheduler polls that found nothing while
	// work remained (concurrent executions only).
	EmptyPolls int64
}

func fromDynamic(st core.DynamicStats) Stats {
	return Stats{
		Pops:        st.Pops,
		StalePops:   st.StalePops,
		Relaxations: st.Emitted,
		EmptyPolls:  st.EmptyPolls,
	}
}

// Dijkstra computes exact shortest-path distances from src using a binary
// heap. It is the correctness oracle and sequential baseline.
func Dijkstra(g *graph.Graph, w *graph.Weights, src int) ([]uint32, error) {
	n := g.NumVertices()
	if src < 0 || src >= n {
		return nil, fmt.Errorf("sssp: source %d out of range [0,%d)", src, n)
	}
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	h := &distHeap{}
	h.push(distEntry{v: int32(src), d: 0})
	for h.len() > 0 {
		e := h.pop()
		if e.d > dist[e.v] {
			continue
		}
		nbrs := g.Neighbors(int(e.v))
		wts := w.Range(g.AdjOffset(int(e.v)), len(nbrs))
		for i, u := range nbrs {
			nd := e.d + wts[i]
			if nd < dist[u] {
				dist[u] = nd
				h.push(distEntry{v: u, d: nd})
			}
		}
	}
	return dist, nil
}

// seqProblem is the sequential-model shortest-path workload expressed as a
// core.DynamicProblem: labels are plain uint32 distances, an item is stale
// when its priority bucket lies above the current distance's bucket, and
// expansion relaxes the vertex's out-edges, emitting every improved neighbor
// with its new bucketed priority.
type seqProblem struct {
	g     *graph.Graph
	w     *graph.Weights
	dist  []uint32
	delta uint32
}

func (p *seqProblem) Stale(task int32, priority uint32) bool {
	return priority > p.dist[task]/p.delta
}

func (p *seqProblem) Expand(task int32, _ uint32, em *core.Emitter) {
	v := int(task)
	d := p.dist[v]
	// One contiguous scan of the CSR neighbors run and its aligned weights
	// run: the two streams advance together (hardware prefetch keeps them in
	// cache), the only irregular accesses are the dist reads they drive, and
	// equal slice lengths let the compiler drop per-edge bounds checks.
	nbrs := p.g.Neighbors(v)
	wts := p.w.Range(p.g.AdjOffset(v), len(nbrs))
	dist := p.dist
	for i, u := range nbrs {
		nd := d + wts[i]
		if nd < dist[u] {
			dist[u] = nd
			em.Emit(u, nd/p.delta)
		}
	}
}

func (p *seqProblem) Done() bool { return false }

// concProblem is the concurrent shortest-path workload: distance labels are
// updated with compare-and-swap minimum, so the result is exact regardless
// of how relaxed the scheduler is. It is safe for concurrent Stale/Expand
// calls as the dynamic engine requires.
type concProblem struct {
	g     *graph.Graph
	w     *graph.Weights
	dist  []atomic.Uint32
	delta uint32
}

func (p *concProblem) Stale(task int32, priority uint32) bool {
	return priority > p.dist[task].Load()/p.delta
}

func (p *concProblem) Expand(task int32, _ uint32, em *core.Emitter) {
	v := int(task)
	d := p.dist[v].Load()
	// Same contiguous neighbors+weights scan as the sequential problem (see
	// seqProblem.Expand); the CAS-minimum loop is per improved edge only.
	nbrs := p.g.Neighbors(v)
	wts := p.w.Range(p.g.AdjOffset(v), len(nbrs))
	dist := p.dist
	for i, u := range nbrs {
		nd := d + wts[i]
		for {
			cur := dist[u].Load()
			if nd >= cur {
				break
			}
			if dist[u].CompareAndSwap(cur, nd) {
				em.Emit(u, nd/p.delta)
				break
			}
		}
	}
}

func (p *concProblem) Done() bool { return false }

func validate(g *graph.Graph, src int, s any, delta uint32) error {
	n := g.NumVertices()
	if src < 0 || src >= n {
		return fmt.Errorf("sssp: source %d out of range [0,%d)", src, n)
	}
	if s == nil {
		return fmt.Errorf("sssp: scheduler must not be nil")
	}
	if delta < 1 {
		return fmt.Errorf("sssp: delta must be at least 1, got %d", delta)
	}
	return nil
}

// RunRelaxed computes shortest-path distances using a (possibly relaxed)
// sequential-model scheduler. The result is always exact; relaxation only
// costs extra work, reported in Stats.
func RunRelaxed(g *graph.Graph, w *graph.Weights, src int, s sched.Scheduler) ([]uint32, Stats, error) {
	return RunRelaxedDelta(g, w, src, s, 1)
}

// RunRelaxedDelta is RunRelaxed with Δ-stepping-style bucketed priorities:
// an item's scheduler priority is its tentative distance divided by delta,
// so all vertices within one bucket of width delta compare equal. Coarser
// buckets mean cheaper, more collision-friendly priorities at the cost of
// processing vertices further out of distance order — which shows up as
// extra stale pops, never as wrong distances. Delta 1 reproduces RunRelaxed
// exactly.
func RunRelaxedDelta(g *graph.Graph, w *graph.Weights, src int, s sched.Scheduler, delta uint32) ([]uint32, Stats, error) {
	if err := validate(g, src, s, delta); err != nil {
		return nil, Stats{}, err
	}
	dist := make([]uint32, g.NumVertices())
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	p := &seqProblem{g: g, w: w, dist: dist, delta: delta}
	st, err := core.RunDynamic(p, []sched.Item{{Task: int32(src), Priority: 0}}, s)
	if err != nil {
		return nil, Stats{}, err
	}
	return dist, fromDynamic(st), nil
}

// RunConcurrent computes shortest-path distances with worker goroutines
// sharing a concurrent scheduler, by handing the workload to the dynamic
// engine (core.RunDynamicConcurrent). Distance updates use compare-and-swap
// minimum, so the result is exact regardless of scheduling; relaxed
// schedulers only add stale pops.
func RunConcurrent(g *graph.Graph, w *graph.Weights, src int, s sched.Concurrent, workers int) ([]uint32, Stats, error) {
	return RunConcurrentDelta(g, w, src, s, 1, core.Options{Workers: workers})
}

// RunConcurrentDelta is RunConcurrent with Δ-stepping-style bucketed
// priorities (see RunRelaxedDelta) and explicit engine options (batch size,
// cancellation). Bucketing composes with batching: both relax the effective
// delivery order, trading relaxation quality against scheduler
// synchronization.
func RunConcurrentDelta(g *graph.Graph, w *graph.Weights, src int, s sched.Concurrent, delta uint32, opts core.Options) ([]uint32, Stats, error) {
	if err := validate(g, src, s, delta); err != nil {
		return nil, Stats{}, err
	}
	n := g.NumVertices()
	dist := make([]atomic.Uint32, n)
	for i := range dist {
		dist[i].Store(Unreachable)
	}
	dist[src].Store(0)
	p := &concProblem{g: g, w: w, dist: dist, delta: delta}
	res, err := core.RunDynamicConcurrent(p, []sched.Item{{Task: int32(src), Priority: 0}}, s, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = dist[i].Load()
	}
	return out, fromDynamic(res), nil
}

// Verify checks that dist is the exact shortest-path distance vector from
// src: the source has distance 0, every edge satisfies the triangle
// inequality, every finite-distance vertex other than the source has a tight
// incoming edge, and unreachable vertices have no reachable neighbor.
func Verify(g *graph.Graph, w *graph.Weights, src int, dist []uint32) error {
	n := g.NumVertices()
	if len(dist) != n {
		return fmt.Errorf("sssp: %d distances for %d vertices", len(dist), n)
	}
	if src < 0 || src >= n {
		return fmt.Errorf("sssp: source %d out of range", src)
	}
	if dist[src] != 0 {
		return fmt.Errorf("sssp: source distance is %d, want 0", dist[src])
	}
	for v := 0; v < n; v++ {
		base := g.AdjOffset(v)
		if dist[v] == Unreachable {
			for _, u := range g.Neighbors(v) {
				if dist[u] != Unreachable {
					return fmt.Errorf("sssp: vertex %d is unreachable but neighbor %d has distance %d", v, u, dist[u])
				}
			}
			continue
		}
		tight := v == src
		for i, u := range g.Neighbors(v) {
			wt := w.At(base + i)
			if dist[u] != Unreachable && dist[u]+wt < dist[v] {
				return fmt.Errorf("sssp: edge (%d,%d) violates optimality: %d + %d < %d", u, v, dist[u], wt, dist[v])
			}
			if dist[u] != Unreachable && dist[u]+wt == dist[v] {
				tight = true
			}
		}
		if !tight {
			return fmt.Errorf("sssp: vertex %d has distance %d but no tight incoming edge", v, dist[v])
		}
	}
	return nil
}

// Equal reports whether two distance vectors are identical.
func Equal(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// distEntry and distHeap form a small dedicated binary heap for Dijkstra, so
// the sequential baseline does not depend on the scheduler packages.
type distEntry struct {
	v int32
	d uint32
}

type distHeap struct {
	entries []distEntry
}

func (h *distHeap) len() int { return len(h.entries) }

func (h *distHeap) push(e distEntry) {
	h.entries = append(h.entries, e)
	i := len(h.entries) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.entries[parent].d <= h.entries[i].d {
			break
		}
		h.entries[parent], h.entries[i] = h.entries[i], h.entries[parent]
		i = parent
	}
}

func (h *distHeap) pop() distEntry {
	top := h.entries[0]
	last := len(h.entries) - 1
	h.entries[0] = h.entries[last]
	h.entries = h.entries[:last]
	i := 0
	for {
		left := 2*i + 1
		if left >= len(h.entries) {
			break
		}
		smallest := left
		if right := left + 1; right < len(h.entries) && h.entries[right].d < h.entries[left].d {
			smallest = right
		}
		if h.entries[i].d <= h.entries[smallest].d {
			break
		}
		h.entries[i], h.entries[smallest] = h.entries[smallest], h.entries[i]
		i = smallest
	}
	return top
}
