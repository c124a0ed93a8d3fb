// Package pagerank implements PageRank via residual push under priority
// schedulers: a power-iteration oracle, a relaxed sequential-model variant,
// and a concurrent variant driven by the dynamic engine.
//
// Push-based ("residual") PageRank maintains two vectors: a rank estimate p
// and a residual r, with the invariant π = p + (I − αPᵀ)⁻¹ r, where π is the
// true PageRank vector and P the random-walk transition matrix. A push at
// vertex v drains its residual into its rank estimate and scatters the damped
// residual α·r[v]/deg(v) onto its neighbors; when every residual is below a
// threshold θ, the rank estimate satisfies ‖π − p‖₁ ≤ n·θ/(1−α). Choosing
// θ = ε·(1−α)/n therefore turns a target L1 accuracy ε into a local,
// per-vertex termination test.
//
// The natural processing order is by *pending residual* — always push the
// vertex holding the most unsettled mass, the priority-queue discipline of
// Berkhin's bookmark-coloring algorithm. That priority is a mutable runtime
// quantity (residuals rise as neighbors push into them), so the workload does
// not fit the paper's static framework; like shortest paths and k-core it is
// expressed as a core.DynamicProblem: an item is stale when its vertex's
// residual has already been drained below θ, expansion pushes and re-emits
// every neighbor whose residual crosses θ from below. Relaxed schedulers
// cannot corrupt the result — pushes only move mass along the invariant — so
// any (even FIFO) delivery order converges to the same π within tolerance;
// relaxation costs only extra pushes, reported as Stats.RePushes plus the
// (structurally rare) Stats.StalePops.
//
// Dangling vertices — vertices with no neighbors, which an undirected graph
// exhibits as isolated vertices — are modeled as linking only to themselves:
// a push at a dangling vertex keeps its damped residual in place, which makes
// the transition matrix stochastic and conserves total mass without the
// O(n)-per-push uniform teleport of the full Google matrix. The power
// iteration oracle uses the same convention, so the two agree on every graph.
package pagerank

import (
	"fmt"
	"math"
	"sync/atomic"

	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/sched"
)

const (
	// DefaultDamping is the standard PageRank damping factor.
	DefaultDamping = 0.85
	// DefaultTolerance is the default target L1 error of the rank estimate.
	DefaultTolerance = 1e-9
)

// Options configures a PageRank computation. Both fields must be set
// explicitly; Defaults() fills in the conventional values. A zero tolerance
// is rejected rather than defaulted: with θ = 0 the push process never
// terminates, and silently substituting a default would mask the bug in the
// caller.
type Options struct {
	// Damping is the probability α of following an edge rather than
	// teleporting. It must lie strictly between 0 and 1.
	Damping float64
	// Tolerance is the target L1 error ε of the returned rank vector against
	// the true PageRank vector. It must be positive. The per-vertex residual
	// threshold is derived as θ = ε·(1−α)/n.
	Tolerance float64
}

// Defaults returns the conventional options: damping 0.85, tolerance 1e-9.
func Defaults() Options {
	return Options{Damping: DefaultDamping, Tolerance: DefaultTolerance}
}

// Validate reports whether the options are usable: damping strictly inside
// (0, 1) and a positive tolerance. Every Run* entry point calls it; callers
// that construct Options from user input (the workload registry, CLIs) call
// it too so one set of bounds governs everywhere.
func (o Options) Validate() error {
	if !(o.Damping > 0 && o.Damping < 1) {
		return fmt.Errorf("pagerank: damping must lie in (0, 1), got %v", o.Damping)
	}
	if !(o.Tolerance > 0) || math.IsInf(o.Tolerance, 1) {
		return fmt.Errorf("pagerank: tolerance must be positive and finite, got %v", o.Tolerance)
	}
	return nil
}

// threshold returns the per-vertex residual threshold θ for an n-vertex
// graph: pushing every residual below θ bounds the final L1 error by
// n·θ/(1−α) = Tolerance.
func (o Options) threshold(n int) float64 {
	if n == 0 {
		return o.Tolerance
	}
	return o.Tolerance * (1 - o.Damping) / float64(n)
}

// Stats counts the work performed by a push execution.
type Stats struct {
	// Pops is the number of items delivered by the scheduler.
	Pops int64
	// StalePops is the number of delivered items dropped without a push:
	// outdated duplicates superseded by a growth re-emission at a better
	// priority, and items whose vertex's residual was already drained below
	// the threshold.
	StalePops int64
	// Pushes is the number of deliveries that drained a residual into the
	// rank estimate (Pops - StalePops).
	Pushes int64
	// RePushes is the number of pushes beyond the first per vertex — the
	// price of processing vertices out of residual order, and the dominant
	// wasted-work term of this workload.
	RePushes int64
	// Emitted is the number of items (re-)emitted by threshold crossings and
	// priority-improving growth.
	Emitted int64
	// EmptyPolls is the number of scheduler polls that found nothing while
	// work remained (concurrent executions only).
	EmptyPolls int64
}

// Wasted returns the workload's wasted-work metric: stale pops plus
// re-pushes. A perfectly residual-ordered execution on a DAG-like instance
// would push every vertex once; everything beyond that is relaxation (or
// graph-cycle) overhead.
func (s Stats) Wasted() int64 { return s.StalePops + s.RePushes }

// priorityOf maps a pending residual to a scheduler priority. Schedulers
// serve the numerically smallest priority first, so the residual's float32
// exponent is inverted: larger residuals sort first, and residuals within a
// factor of two share one priority (IEEE-754 orders positive floats by their
// bit patterns, and the exponent is the pattern's high byte).
//
// Quantizing to the magnitude is deliberate — it is this workload's
// Δ-stepping. Residuals rise continuously as neighbors push into them, so a
// full-resolution priority is outdated the moment it is recorded; bucketing
// by magnitude makes priorities meaningful for a whole factor-of-two of
// growth, and the emit protocol (below) refreshes an item only when its
// vertex's residual crosses into a better bucket. Correctness never depends
// on the priority — the threshold tests use full precision — so the
// quantization only trades scheduling fidelity, exactly like sssp's -delta
// bucketing.
func priorityOf(r float64) uint32 {
	f := float32(r)
	if !(f > 0) {
		return math.MaxUint32
	}
	return 254 - math.Float32bits(f)>>23
}

// PowerIteration computes the PageRank vector by Jacobi iteration on
// π = (1−α)/n·1 + α·Pᵀπ until the L1 change of one sweep guarantees
// ‖π_est − π‖₁ ≤ eps (the change contracts by α per sweep, so the remaining
// error after a sweep of change δ is at most δ·α/(1−α)). It is the exactness
// oracle and the sequential speedup baseline.
func PowerIteration(g *graph.Graph, opts Options) ([]float64, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	ranks := make([]float64, n)
	if n == 0 {
		return ranks, nil
	}
	alpha := opts.Damping
	base := (1 - alpha) / float64(n)
	for v := range ranks {
		ranks[v] = 1 / float64(n)
	}
	next := make([]float64, n)
	// One sweep of change δ leaves at most δ·α/(1−α) of error.
	stop := opts.Tolerance * (1 - alpha) / alpha
	for {
		for v := 0; v < n; v++ {
			next[v] = base
			if g.Degree(v) == 0 {
				next[v] += alpha * ranks[v] // dangling: self-loop
			}
		}
		for v := 0; v < n; v++ {
			deg := g.Degree(v)
			if deg == 0 {
				continue
			}
			share := alpha * ranks[v] / float64(deg)
			for _, u := range g.Neighbors(v) {
				next[u] += share
			}
		}
		var change float64
		for v := range next {
			change += math.Abs(next[v] - ranks[v])
		}
		ranks, next = next, ranks
		if change <= stop {
			return ranks, nil
		}
	}
}

// The emit protocol, shared by both problem variants. A vertex is emitted
//
//   - when an addition carries its residual across the threshold θ from
//     below ("crossing" — the emission that guarantees liveness: every
//     above-threshold vertex always has a live item queued), and
//   - when an addition moves its residual into a strictly better priority
//     bucket than the freshest item it has queued ("growth" — the lazy
//     decrease-key that keeps scheduler priorities honest while inflow
//     accumulates).
//
// lastEmit[v] records the priority of the freshest queued item for v
// (math.MaxUint32 when none is queued). A delivered item with a priority
// worse than lastEmit[v] is an outdated duplicate — a fresher item is in
// flight — and is dropped as a stale pop; the freshest item claims the drain
// by resetting lastEmit[v]. Without the growth rule every queued priority is
// the residual at crossing time — barely above θ, the least informative
// value possible — and an "exact" scheduler degenerates into near-random
// order, measured at ~600x the pushes of round-robin on G(800, 4800).

// seqProblem is the sequential-model push workload: plain float64 rank and
// residual slices.
type seqProblem struct {
	g        *graph.Graph
	alpha    float64
	theta    float64
	rank     []float64
	residual []float64
	lastEmit []uint32
}

func (p *seqProblem) Stale(task int32, priority uint32) bool {
	if p.residual[task] < p.theta {
		return true
	}
	if priority > p.lastEmit[task] {
		return true // outdated duplicate; a fresher item is queued
	}
	p.lastEmit[task] = math.MaxUint32 // claim the drain
	return false
}

// growthHysteresis is how many priority buckets of improvement a growth
// re-emission tolerates without firing: a vertex is re-emitted only when
// its residual's bucket beats its freshest queued item's bucket by MORE
// than this many levels. Zero re-emits on every bucket crossing, which
// keeps scheduler priorities maximally honest but floods the scheduler
// with duplicates (~4 stale pops per useful push, measured on a
// 100k-vertex power-law instance); larger values trade priority staleness
// for fewer duplicates. Two (re-emit at 3+ buckets, i.e. 8x growth) is the
// measured sweet spot: it halves total scheduler traffic while exact-heap
// push counts stay within ~1.5x of round-robin order; tolerating 4+ lets
// priorities go stale enough that the push count itself starts climbing.
const growthHysteresis uint32 = 2

// bump applies one residual addition at u and reports whether the emit
// protocol requires a (re-)emission, returning the priority to emit at.
func bump(old, nu, theta float64, lastEmit *uint32) (uint32, bool) {
	if nu < theta {
		return 0, false
	}
	q := priorityOf(nu)
	if old >= theta && q+growthHysteresis >= *lastEmit {
		return 0, false
	}
	*lastEmit = q
	return q, true
}

func (p *seqProblem) Expand(task int32, _ uint32, em *core.Emitter) {
	v := int(task)
	rho := p.residual[v]
	p.residual[v] = 0
	p.rank[v] += rho
	deg := p.g.Degree(v)
	if deg == 0 {
		// Dangling: the damped mass stays in place (self-loop); it decays
		// geometrically, so the vertex re-emits itself only finitely often.
		nr := p.alpha * rho
		p.residual[v] = nr
		if q, emit := bump(0, nr, p.theta, &p.lastEmit[v]); emit {
			em.Emit(task, q)
		}
		return
	}
	share := p.alpha * rho / float64(deg)
	// One contiguous scan of the CSR neighbors run; hoisting the residual
	// and lastEmit slices keeps the loop body free of pointer re-loads so
	// the only irregular accesses are the per-neighbor residual updates the
	// scan drives.
	residual, lastEmit := p.residual, p.lastEmit
	for _, u := range p.g.Neighbors(v) {
		old := residual[u]
		nu := old + share
		residual[u] = nu
		if q, emit := bump(old, nu, p.theta, &lastEmit[u]); emit {
			em.Emit(u, q)
		}
	}
}

func (p *seqProblem) Done() bool { return false }

// concProblem is the concurrent push workload: ranks and residuals are
// float64 bit patterns in atomic words, updated with compare-and-swap adds.
type concProblem struct {
	g        *graph.Graph
	alpha    float64
	theta    float64
	rank     []atomic.Uint64
	residual []atomic.Uint64
	lastEmit []atomic.Uint32
}

// addFloat atomically adds delta to the float64 stored in a, returning the
// value held immediately before this add took effect.
func addFloat(a *atomic.Uint64, delta float64) (old float64) {
	for {
		ob := a.Load()
		o := math.Float64frombits(ob)
		if a.CompareAndSwap(ob, math.Float64bits(o+delta)) {
			return o
		}
	}
}

func (p *concProblem) Stale(task int32, priority uint32) bool {
	if math.Float64frombits(p.residual[task].Load()) < p.theta {
		return true
	}
	if priority > p.lastEmit[task].Load() {
		return true // outdated duplicate; a fresher item is in flight
	}
	p.lastEmit[task].Store(math.MaxUint32) // claim the drain
	return false
}

// bumpAtomic is the concurrent emit protocol for one residual addition
// old → old+delta at u. The CAS in addFloat serializes concurrent additions,
// so exactly one of several racing adds observes the θ crossing and its
// emission is unconditional; growth re-emissions race on lastEmit with a CAS
// so at most one duplicate per bucket improvement enters the scheduler. A
// lost race never loses liveness — it means a fresher item is already queued
// or the vertex's drain is already claimed (and any mass added before the
// claimed drain's swap rides along with it).
func (p *concProblem) bumpAtomic(u int32, old, nu float64, em *core.Emitter) {
	if nu < p.theta {
		return
	}
	q := priorityOf(nu)
	if old < p.theta {
		p.lastEmit[u].Store(q)
		em.Emit(u, q)
		return
	}
	if last := p.lastEmit[u].Load(); q+growthHysteresis < last && p.lastEmit[u].CompareAndSwap(last, q) {
		em.Emit(u, q)
	}
}

func (p *concProblem) Expand(task int32, _ uint32, em *core.Emitter) {
	v := int(task)
	rho := math.Float64frombits(p.residual[v].Swap(0))
	if rho <= 0 {
		return
	}
	addFloat(&p.rank[v], rho)
	deg := p.g.Degree(v)
	if deg == 0 {
		nr := p.alpha * rho
		old := addFloat(&p.residual[v], nr)
		p.bumpAtomic(task, old, old+nr, em)
		return
	}
	share := p.alpha * rho / float64(deg)
	// Contiguous neighbors scan with the residual slice hoisted, mirroring
	// seqProblem.Expand; the CAS add is the loop's only synchronization.
	residual := p.residual
	for _, u := range p.g.Neighbors(v) {
		old := addFloat(&residual[u], share)
		p.bumpAtomic(u, old, old+share, em)
	}
}

func (p *concProblem) Done() bool { return false }

// seedItems returns one item per vertex at the initial residual (1−α)/n —
// every vertex starts with the same unsettled teleport mass, so the first
// round of a residual-ordered execution is a full sweep. The callers seed
// lastEmit with the same priority so the emit protocol sees the seeds as the
// freshest queued items.
func seedItems(n int, r0, theta float64) []sched.Item {
	if r0 < theta {
		return nil
	}
	seeds := make([]sched.Item, n)
	pri := priorityOf(r0)
	for v := range seeds {
		seeds[v] = sched.Item{Task: int32(v), Priority: pri}
	}
	return seeds
}

// finishStats maps engine counters to package Stats and derives the re-push
// count: a vertex has been pushed at least once exactly when its rank
// estimate is positive, so pushes beyond that count are re-pushes.
func finishStats(st core.DynamicStats, touched int64) Stats {
	pushes := st.Pops - st.StalePops
	re := pushes - touched
	if re < 0 {
		re = 0
	}
	return Stats{
		Pops:       st.Pops,
		StalePops:  st.StalePops,
		Pushes:     pushes,
		RePushes:   re,
		Emitted:    st.Emitted,
		EmptyPolls: st.EmptyPolls,
	}
}

// RunRelaxed computes PageRank using a (possibly relaxed) sequential-model
// scheduler. The returned ranks satisfy ‖π − ranks‖₁ ≤ opts.Tolerance for
// any scheduler; relaxation only costs extra pushes, reported in Stats.
func RunRelaxed(g *graph.Graph, s sched.Scheduler, opts Options) ([]float64, Stats, error) {
	if err := opts.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if s == nil {
		return nil, Stats{}, fmt.Errorf("pagerank: scheduler must not be nil")
	}
	n := g.NumVertices()
	p := &seqProblem{
		g:        g,
		alpha:    opts.Damping,
		theta:    opts.threshold(n),
		rank:     make([]float64, n),
		residual: make([]float64, n),
		lastEmit: make([]uint32, n),
	}
	r0 := 0.0
	if n > 0 {
		r0 = (1 - opts.Damping) / float64(n)
	}
	seedPri := priorityOf(r0)
	for v := range p.residual {
		p.residual[v] = r0
		p.lastEmit[v] = seedPri
	}
	st, err := core.RunDynamic(p, seedItems(n, r0, p.theta), s)
	if err != nil {
		return nil, Stats{}, err
	}
	var touched int64
	for _, r := range p.rank {
		if r > 0 {
			touched++
		}
	}
	return p.rank, finishStats(st, touched), nil
}

// RunConcurrent computes PageRank with worker goroutines sharing a
// concurrent scheduler, via the dynamic engine. dopts carries the engine
// knobs (worker count, batch size, cancellation). The result is within
// opts.Tolerance of the true PageRank vector in L1 for any scheduler and
// worker count; the exact floating-point values vary run to run because
// concurrent pushes sum residuals in nondeterministic order.
func RunConcurrent(g *graph.Graph, s sched.Concurrent, dopts core.Options, opts Options) ([]float64, Stats, error) {
	if err := opts.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if s == nil {
		return nil, Stats{}, fmt.Errorf("pagerank: scheduler must not be nil")
	}
	if dopts.Workers < 1 {
		return nil, Stats{}, fmt.Errorf("pagerank: worker count must be at least 1, got %d", dopts.Workers)
	}
	n := g.NumVertices()
	p := &concProblem{
		g:        g,
		alpha:    opts.Damping,
		theta:    opts.threshold(n),
		rank:     make([]atomic.Uint64, n),
		residual: make([]atomic.Uint64, n),
		lastEmit: make([]atomic.Uint32, n),
	}
	r0 := 0.0
	if n > 0 {
		r0 = (1 - opts.Damping) / float64(n)
	}
	bits := math.Float64bits(r0)
	seedPri := priorityOf(r0)
	for v := 0; v < n; v++ {
		p.residual[v].Store(bits)
		p.lastEmit[v].Store(seedPri)
	}
	res, err := core.RunDynamicConcurrent(p, seedItems(n, r0, p.theta), s, dopts)
	if err != nil {
		return nil, Stats{}, err
	}
	out := make([]float64, n)
	var touched int64
	for v := range out {
		out[v] = math.Float64frombits(p.rank[v].Load())
		if out[v] > 0 {
			touched++
		}
	}
	return out, finishStats(res, touched), nil
}

// L1 returns the L1 distance ‖a − b‖₁ of two equal-length vectors.
func L1(a, b []float64) float64 {
	var d float64
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}

// Sum returns the total mass of a rank vector. A fully converged PageRank
// vector sums to 1; a push execution stopped at threshold θ sums to
// 1 − ‖r‖₁/(1−α) ≥ 1 − Tolerance.
func Sum(ranks []float64) float64 {
	var s float64
	for _, r := range ranks {
		s += r
	}
	return s
}

// Verify checks ranks against a freshly computed power-iteration oracle:
// the L1 distance must be within opts.Tolerance plus the oracle's own
// tolerance, and the total mass must be within opts.Tolerance of 1.
func Verify(g *graph.Graph, ranks []float64, opts Options) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	n := g.NumVertices()
	if len(ranks) != n {
		return fmt.Errorf("pagerank: %d ranks for %d vertices", len(ranks), n)
	}
	if n == 0 {
		return nil
	}
	oracle, err := PowerIteration(g, opts)
	if err != nil {
		return err
	}
	if d := L1(ranks, oracle); d > 2*opts.Tolerance {
		return fmt.Errorf("pagerank: L1 distance %v to the power-iteration oracle exceeds %v", d, 2*opts.Tolerance)
	}
	if s := Sum(ranks); math.Abs(s-1) > opts.Tolerance {
		return fmt.Errorf("pagerank: rank mass %v differs from 1 by more than %v", s, opts.Tolerance)
	}
	return nil
}
