// Package coloring implements greedy vertex coloring in the relaxed
// scheduling framework (Algorithm 3 of the paper).
//
// The sequential greedy algorithm processes vertices in priority order and
// assigns each vertex the smallest color not used by an already-colored
// (higher-priority) neighbor. The dependency graph is simply the input graph
// with edges oriented by the priority permutation, so by Theorem 1 a
// k-relaxed scheduler executes it with only O(m/n)·poly(k) extra iterations —
// negligible on sparse graphs.
//
// New builds that dependency graph once (graph.Orient) and the Problem runs
// on it: task i is the vertex of priority i, Blocked and Process scan only
// its predecessors, and neither reads a label. Consecutive tasks touch
// consecutive rows and recently written colors, which is what makes a run
// cheap; the executors are therefore driven with the identity permutation.
//
// (*Problem).Sequential is the exact greedy baseline: every relaxed or
// concurrent run must reproduce its output, and the repository benchmark
// divides the one-worker executor's time by its time. Verify checks any
// coloring against the greedy rule on the original graph, without the
// oriented one, so it certifies the output independently of both.
package coloring

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/sched"
)

// NoColor is the color value of a vertex that has not been processed yet.
const NoColor = int32(-1)

// Problem is the greedy coloring problem on a graph oriented by a priority
// permutation. It implements core.Problem with one task per priority: task i
// is the vertex whose label is i, so executors must be run with
// core.IdentityLabels.
type Problem struct {
	dag    *graph.DAG
	labels []uint32
}

var _ core.Problem = (*Problem)(nil)

// New returns the greedy coloring problem for g under the priority
// permutation labels. A labels slice that is not a permutation of the
// vertices is rejected with core.ErrBadPermutation. The problem keeps labels
// to map colors back to vertices, so the caller must not modify it.
func New(g *graph.Graph, labels []uint32) (*Problem, error) {
	if err := core.ValidateLabels(g.NumVertices(), labels); err != nil {
		return nil, err
	}
	return &Problem{dag: graph.Orient(g, labels), labels: labels}, nil
}

// NumTasks returns the number of vertices.
func (p *Problem) NumTasks() int { return p.dag.NumVertices() }

// NewInstance binds the problem to an execution. The instance does not
// query st: a task's color doubles as its processed mark.
func (p *Problem) NewInstance(core.State) core.Instance {
	colors := make([]int32, p.NumTasks())
	for i := range colors {
		colors[i] = NoColor
	}
	return &Instance{p: p, colors: colors}
}

// Instance is a bound coloring execution, indexed by task (priority). A
// task's color is written once, atomically, at the end of its Process; a
// task that loads a predecessor's color other than NoColor therefore sees a
// finished predecessor, so Blocked needs no other processed mark.
type Instance struct {
	p      *Problem
	colors []int32
}

var _ core.Instance = (*Instance)(nil)

// Blocked reports whether task i still has an uncolored predecessor.
func (inst *Instance) Blocked(i int) bool {
	for _, u := range inst.p.dag.Preds(i) {
		if atomic.LoadInt32(&inst.colors[u]) == NoColor {
			return true
		}
	}
	return false
}

// Dead always reports false; every vertex must be colored.
func (inst *Instance) Dead(int) bool { return false }

// Process assigns task i the smallest color unused among its predecessors,
// which are all colored: the framework calls it only once Blocked(i) is
// false. A task with d predecessors has a mex of at most d, so only colors
// 0..d can change the answer and larger ones are skipped. When d < 64 the
// used colors fit one uint64 and the mex is its lowest clear bit; larger
// in-degrees go to mexWords. Neither allocates while d < 4096.
func (inst *Instance) Process(i int) {
	preds := inst.p.dag.Preds(i)
	var color int
	if len(preds) < 64 {
		var used uint64
		for _, u := range preds {
			// A shift of 64 or more yields 0, so colors above 63 drop out.
			used |= 1 << uint32(atomic.LoadInt32(&inst.colors[u]))
		}
		color = bits.TrailingZeros64(^used)
	} else {
		color = inst.mexWords(preds)
	}
	atomic.StoreInt32(&inst.colors[i], int32(color))
}

// mexWords is Process for d >= 64 predecessors: a bitmap of d/64+1 words
// covers colors 0..d, on the stack while d < 4096 and on the heap above.
func (inst *Instance) mexWords(preds []int32) int {
	var stack [64]uint64
	var used []uint64
	if words := len(preds)/64 + 1; words <= len(stack) {
		used = stack[:words]
	} else {
		used = make([]uint64, words)
	}
	for _, u := range preds {
		if c := uint(atomic.LoadInt32(&inst.colors[u])); c/64 < uint(len(used)) {
			used[c/64] |= 1 << (c % 64)
		}
	}
	for w, bitsUsed := range used {
		if bitsUsed != ^uint64(0) {
			return 64*w + bits.TrailingZeros64(^bitsUsed)
		}
	}
	return 64 * len(used)
}

// Colors returns the computed coloring in vertex order. It must only be
// called after the execution has finished.
func (inst *Instance) Colors() []int32 { return inst.p.byVertex(inst.colors) }

// byVertex maps colors indexed by priority back to vertex order.
func (p *Problem) byVertex(colors []int32) []int32 {
	out := make([]int32, len(colors))
	for v, l := range p.labels {
		out[v] = colors[l]
	}
	return out
}

// Sequential computes the greedy coloring directly, without the framework,
// walking the oriented graph in priority order. A vertex with d
// predecessors gets a color of at most d, so one table of MaxInDegree()+1
// slots covers every vertex. Slot c holds i+1 while task i is being colored
// if a predecessor has color c; the stamp is unique per task, so the table
// is never cleared and the whole run allocates a constant number of times.
func (p *Problem) Sequential() []int32 {
	colors := make([]int32, p.NumTasks())
	taken := make([]int32, p.dag.MaxInDegree()+1)
	for i := range colors {
		stamp := int32(i + 1)
		for _, u := range p.dag.Preds(i) {
			taken[colors[u]] = stamp
		}
		var c int32
		for taken[c] == stamp {
			c++
		}
		colors[i] = c
	}
	return p.byVertex(colors)
}

// Sequential computes the greedy coloring of g under labels: New followed
// by (*Problem).Sequential, orientation included. It panics if labels is
// not a permutation of g's vertices.
func Sequential(g *graph.Graph, labels []uint32) []int32 {
	p, err := New(g, labels)
	if err != nil {
		panic(err)
	}
	return p.Sequential()
}

// RunRelaxed executes greedy coloring with a sequential-model scheduler and
// returns the coloring along with the execution counters.
func RunRelaxed(g *graph.Graph, labels []uint32, s sched.Scheduler) ([]int32, core.Result, error) {
	p, err := New(g, labels)
	if err != nil {
		return nil, core.Result{}, fmt.Errorf("coloring: relaxed execution: %w", err)
	}
	res, err := core.RunRelaxed(p, core.IdentityLabels(p.NumTasks()), s)
	if err != nil {
		return nil, core.Result{}, fmt.Errorf("coloring: relaxed execution: %w", err)
	}
	return res.Instance.(*Instance).Colors(), res, nil
}

// RunConcurrent executes greedy coloring with worker goroutines sharing a
// concurrent scheduler.
func RunConcurrent(g *graph.Graph, labels []uint32, s sched.Concurrent, policy core.Policy, opts core.Options) ([]int32, core.Result, error) {
	p, err := New(g, labels)
	if err != nil {
		return nil, core.Result{}, fmt.Errorf("coloring: concurrent execution: %w", err)
	}
	res, err := core.RunConcurrent(p, core.IdentityLabels(p.NumTasks()), s, policy, opts)
	if err != nil {
		return nil, core.Result{}, fmt.Errorf("coloring: concurrent execution: %w", err)
	}
	return res.Instance.(*Instance).Colors(), res, nil
}

// NumColors returns the number of distinct colors used (the maximum color
// plus one), or 0 if the coloring is empty.
func NumColors(colors []int32) int {
	maxColor := int32(-1)
	for _, c := range colors {
		if c > maxColor {
			maxColor = c
		}
	}
	return int(maxColor + 1)
}

// Verify checks that colors is the greedy coloring of g under labels: every
// vertex v has a color, and it is the smallest one no neighbor of lower
// label has, c(v) = mex{c(u) : u ~ v, labels[u] < labels[v]}. By induction
// over the labels only the sequential algorithm's output passes, so this
// certifies exactness, and properness with it. It reads g itself, not the
// oriented graph the Problem runs on, in O(n + m) time.
func Verify(g *graph.Graph, labels []uint32, colors []int32) error {
	n := g.NumVertices()
	if len(colors) != n {
		return fmt.Errorf("coloring: %d colors for %d vertices", len(colors), n)
	}
	if err := core.ValidateLabels(n, labels); err != nil {
		return fmt.Errorf("coloring: %w", err)
	}
	// A vertex's mex is at most its degree; slots are stamped as in
	// (*Problem).Sequential.
	taken := make([]int32, g.MaxDegree()+1)
	for v := 0; v < n; v++ {
		c, lv, stamp := colors[v], labels[v], int32(v+1)
		if c < 0 {
			return fmt.Errorf("coloring: vertex %d is uncolored", v)
		}
		for _, u := range g.Neighbors(v) {
			if labels[u] > lv {
				continue
			}
			cu := colors[u]
			if cu == c {
				return fmt.Errorf("coloring: adjacent vertices %d and %d share color %d", v, u, c)
			}
			if cu >= 0 && int(cu) < len(taken) {
				taken[cu] = stamp
			}
		}
		var mex int32
		for taken[mex] == stamp {
			mex++
		}
		if c != mex {
			return fmt.Errorf("coloring: vertex %d has color %d, but the smallest color its higher-priority neighbors leave free is %d", v, c, mex)
		}
	}
	return nil
}

// Equal reports whether two colorings are identical.
func Equal(a, b []int32) bool {
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
