// Package kcore computes the k-core decomposition of a graph — for every
// vertex, the largest k such that it belongs to a subgraph of minimum degree
// k (its core number; the maximum over all vertices is the graph's
// degeneracy).
//
// The sequential oracle is the classic bucket-peeling algorithm (repeatedly
// remove a minimum-degree vertex), which is inherently priority-ordered: the
// removal priority of a vertex is its *current* degree, which drops as
// neighbors are peeled. That makes k-core the second natural dynamic-priority
// workload beside shortest paths, and it is expressed here as a
// core.DynamicProblem driven by the dynamic engine.
//
// The relaxed executions use the local fixpoint formulation (Montresor,
// De Pellegrini, Miorandi, 2013): every vertex keeps an estimate initialized
// to its degree, and repeatedly lowers it to the h-index of its neighbors'
// estimates — the largest h such that at least h neighbors have estimate at
// least h. Estimates decrease monotonically and the greatest fixpoint is
// exactly the core decomposition, *regardless of update order*. A relaxed
// scheduler therefore cannot corrupt the result: processing vertices out of
// degree order only delays convergence, which the engine reports as extra
// pops. Re-check tasks are deduplicated with per-vertex dirty flags that are
// set before insertion and claimed at delivery, so at most one task per
// vertex is ever queued: stale pops are structurally zero, and wasted work
// appears as re-evaluations beyond the initial one per vertex
// (Stats.Pops - NumVertices) instead.
//
// The workload registers as "kcore" in internal/workload (wasted work:
// extra re-evaluations), which is how cmd/relaxrun, cmd/relaxbench and
// internal/bench reach it.
package kcore

import (
	"fmt"
	"sync/atomic"

	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/sched"
)

// Stats counts the work performed by a k-core execution.
type Stats struct {
	// Pops is the number of items removed from the scheduler.
	Pops int64
	// StalePops is the number of removed items whose vertex had already been
	// re-evaluated since the item was emitted. The dirty-flag dedup keeps at
	// most one task per vertex queued, so this is structurally zero; it is
	// retained for symmetry with the engine's counters.
	StalePops int64
	// Emitted is the number of re-evaluation tasks emitted by estimate
	// decreases.
	Emitted int64
	// EmptyPolls is the number of scheduler polls that found nothing while
	// work remained (concurrent executions only).
	EmptyPolls int64
}

func fromDynamic(st core.DynamicStats) Stats {
	return Stats{Pops: st.Pops, StalePops: st.StalePops, Emitted: st.Emitted, EmptyPolls: st.EmptyPolls}
}

// Sequential computes core numbers with the Batagelj–Zaveršnik bucket
// peeling algorithm in O(n + m): vertices are kept sorted by current degree,
// and peeling a vertex moves each higher-degree neighbor one bucket down.
// It is the correctness oracle and sequential baseline.
func Sequential(g *graph.Graph) []uint32 {
	n := g.NumVertices()
	coreNum := make([]uint32, n)
	if n == 0 {
		return coreNum
	}
	maxDeg := g.MaxDegree()

	deg := make([]uint32, n)
	bin := make([]uint32, maxDeg+1)
	for v := 0; v < n; v++ {
		deg[v] = uint32(g.Degree(v))
		bin[deg[v]]++
	}
	// bin[d] becomes the start index of degree-d vertices in vert.
	var start uint32
	for d := 0; d <= maxDeg; d++ {
		count := bin[d]
		bin[d] = start
		start += count
	}
	vert := make([]uint32, n) // vertices sorted by current degree
	pos := make([]uint32, n)  // position of each vertex in vert
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = uint32(v)
		bin[deg[v]]++
	}
	// Restore bin to start indices.
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0

	for i := 0; i < n; i++ {
		v := vert[i]
		coreNum[v] = deg[v]
		for _, u := range g.Neighbors(int(v)) {
			if deg[u] > deg[v] {
				// Swap u with the first vertex of its degree bucket, then
				// shrink the bucket: u's degree drops by one.
				du := deg[u]
				pu, pw := pos[u], bin[du]
				w := vert[pw]
				if uint32(u) != w {
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, uint32(u)
				}
				bin[du]++
				deg[u]--
			}
		}
	}
	return coreNum
}

// Degeneracy returns the maximum core number (0 for an empty graph).
func Degeneracy(coreNums []uint32) uint32 {
	var d uint32
	for _, c := range coreNums {
		if c > d {
			d = c
		}
	}
	return d
}

// hIndexInto computes the h-index of the capped values written into hist by
// the caller: the largest h ≤ cap with at least h values ≥ h. hist[0..cap]
// must hold the value histogram (values above cap counted at cap).
func hIndexInto(hist []uint32, cap uint32) uint32 {
	var cum uint32
	for h := cap; h >= 1; h-- {
		cum += hist[h]
		if cum >= h {
			return h
		}
	}
	return 0
}

// seqProblem is the sequential-model fixpoint workload: plain estimate and
// dirty-flag slices, one scratch histogram.
type seqProblem struct {
	g       *graph.Graph
	est     []uint32
	dirty   []bool
	scratch []uint32
}

func (p *seqProblem) Stale(task int32, _ uint32) bool {
	if !p.dirty[task] {
		return true
	}
	p.dirty[task] = false
	return false
}

func (p *seqProblem) Expand(task int32, _ uint32, em *core.Emitter) {
	v := int(task)
	cur := p.est[v]
	if cur == 0 {
		return
	}
	hist := p.scratch[: cur+1 : cur+1]
	clear(hist)
	for _, u := range p.g.Neighbors(v) {
		e := p.est[u]
		if e > cur {
			e = cur
		}
		hist[e]++
	}
	h := hIndexInto(hist, cur)
	if h >= cur {
		return
	}
	p.est[v] = h
	for _, u := range p.g.Neighbors(v) {
		if p.est[u] > h && !p.dirty[u] {
			p.dirty[u] = true
			em.Emit(u, p.est[u])
		}
	}
}

func (p *seqProblem) Done() bool { return false }

// concProblem is the concurrent fixpoint workload: estimates decrease via
// compare-and-swap, dirty flags are claimed with compare-and-swap (the
// engine's once-per-item Stale contract makes the claim race-free), and each
// engine worker owns one scratch histogram, indexed by Emitter.Worker.
//
// Monotonicity makes the races benign: an expansion that read neighbor
// estimates which then dropped may keep the vertex's estimate too high, but
// every drop re-marks and re-emits the affected neighbors (after the drop is
// published), so a follow-up re-evaluation always observes the new values.
type concProblem struct {
	g       *graph.Graph
	est     []atomic.Uint32
	dirty   []atomic.Bool
	scratch [][]uint32
}

func (p *concProblem) Stale(task int32, _ uint32) bool {
	return !p.dirty[task].CompareAndSwap(true, false)
}

func (p *concProblem) Expand(task int32, _ uint32, em *core.Emitter) {
	v := int(task)
	cur := p.est[v].Load()
	if cur == 0 {
		return
	}
	hist := p.scratch[em.Worker][: cur+1 : cur+1]
	clear(hist)
	for _, u := range p.g.Neighbors(v) {
		e := p.est[u].Load()
		if e > cur {
			e = cur
		}
		hist[e]++
	}
	h := hIndexInto(hist, cur)
	// Publish the decrease; a concurrent re-evaluation of v may already have
	// pushed the estimate below h, in which case there is nothing to do
	// (both values bound the core number from above, keep the smaller).
	for {
		if h >= cur {
			return
		}
		if p.est[v].CompareAndSwap(cur, h) {
			break
		}
		cur = p.est[v].Load()
	}
	for _, u := range p.g.Neighbors(v) {
		if p.est[u].Load() > h && p.dirty[u].CompareAndSwap(false, true) {
			em.Emit(u, p.est[u].Load())
		}
	}
}

func (p *concProblem) Done() bool { return false }

// seedItems returns one re-evaluation task per vertex, at its degree — the
// initial estimate, so a (possibly relaxed) min-priority scheduler
// approximates the peeling order from the start.
func seedItems(g *graph.Graph) []sched.Item {
	seeds := make([]sched.Item, g.NumVertices())
	for v := range seeds {
		seeds[v] = sched.Item{Task: int32(v), Priority: uint32(g.Degree(v))}
	}
	return seeds
}

// RunRelaxed computes core numbers using a (possibly relaxed)
// sequential-model scheduler. The result is always exact; relaxation only
// delays fixpoint convergence, reported as extra work in Stats.
func RunRelaxed(g *graph.Graph, s sched.Scheduler) ([]uint32, Stats, error) {
	if s == nil {
		return nil, Stats{}, fmt.Errorf("kcore: scheduler must not be nil")
	}
	n := g.NumVertices()
	p := &seqProblem{
		g:       g,
		est:     make([]uint32, n),
		dirty:   make([]bool, n),
		scratch: make([]uint32, g.MaxDegree()+1),
	}
	for v := 0; v < n; v++ {
		p.est[v] = uint32(g.Degree(v))
		p.dirty[v] = true
	}
	st, err := core.RunDynamic(p, seedItems(g), s)
	if err != nil {
		return nil, Stats{}, err
	}
	return p.est, fromDynamic(st), nil
}

// RunConcurrent computes core numbers with worker goroutines sharing a
// concurrent scheduler, via the dynamic engine. opts carries the engine
// knobs (worker count, batch size, cancellation).
func RunConcurrent(g *graph.Graph, s sched.Concurrent, opts core.Options) ([]uint32, Stats, error) {
	if s == nil {
		return nil, Stats{}, fmt.Errorf("kcore: scheduler must not be nil")
	}
	if opts.Workers < 1 {
		return nil, Stats{}, fmt.Errorf("kcore: worker count must be at least 1, got %d", opts.Workers)
	}
	n := g.NumVertices()
	p := &concProblem{
		g:       g,
		est:     make([]atomic.Uint32, n),
		dirty:   make([]atomic.Bool, n),
		scratch: make([][]uint32, opts.Workers),
	}
	maxDeg := g.MaxDegree()
	for w := range p.scratch {
		p.scratch[w] = make([]uint32, maxDeg+1)
	}
	for v := 0; v < n; v++ {
		p.est[v].Store(uint32(g.Degree(v)))
		p.dirty[v].Store(true)
	}
	res, err := core.RunDynamicConcurrent(p, seedItems(g), s, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	out := make([]uint32, n)
	for v := range out {
		out[v] = p.est[v].Load()
	}
	return out, fromDynamic(res), nil
}

// Verify checks that coreNums is the exact k-core decomposition of g by
// recomputing it with the sequential peeling oracle. (The fixpoint property
// alone cannot be checked locally: any common lowering of the estimates —
// all zeros, say — is also a fixpoint; correctness is being the *greatest*
// one.)
func Verify(g *graph.Graph, coreNums []uint32) error {
	n := g.NumVertices()
	if len(coreNums) != n {
		return fmt.Errorf("kcore: %d core numbers for %d vertices", len(coreNums), n)
	}
	want := Sequential(g)
	for v := range want {
		if coreNums[v] != want[v] {
			return fmt.Errorf("kcore: vertex %d has core number %d, want %d", v, coreNums[v], want[v])
		}
	}
	return nil
}

// Equal reports whether two core-number vectors are identical.
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
