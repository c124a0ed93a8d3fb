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
// Sequential is the exact greedy baseline: every relaxed or concurrent run
// must reproduce its output, and the repository benchmark divides the
// one-worker executor's time by its time. It shares no code with Process,
// so the two check each other, and it does no per-vertex allocation, so
// that ratio measures the executor rather than the oracle's bookkeeping.
package coloring

import (
	"fmt"

	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/sched"
)

// NoColor is the color value of a vertex that has not been processed yet.
const NoColor = int32(-1)

// Problem is the greedy coloring problem on a graph. It implements
// core.Problem.
type Problem struct {
	g *graph.Graph
}

var _ core.Problem = (*Problem)(nil)

// New returns the greedy coloring problem for g.
func New(g *graph.Graph) *Problem { return &Problem{g: g} }

// NumTasks returns the number of vertices.
func (p *Problem) NumTasks() int { return p.g.NumVertices() }

// NewInstance binds the problem to an execution.
func (p *Problem) NewInstance(st core.State) core.Instance {
	colors := make([]int32, p.g.NumVertices())
	for i := range colors {
		colors[i] = NoColor
	}
	return &Instance{g: p.g, st: st, labels: core.LabelsOf(st), colors: colors}
}

// Instance is a bound coloring execution. Concurrent workers only ever read
// the color of a processed neighbor, and the framework's processed bit
// provides the necessary happens-before edge, so plain (non-atomic) color
// storage is safe. The priority labels are held as a flat slice so the hot
// loops read them without an interface dispatch per neighbor.
type Instance struct {
	g      *graph.Graph
	st     core.State
	labels []uint32
	colors []int32
}

var _ core.Instance = (*Instance)(nil)

// Blocked reports whether v still has an uncolored higher-priority neighbor.
func (inst *Instance) Blocked(v int) bool {
	lv := inst.labels[v]
	for _, u := range inst.g.Neighbors(v) {
		if inst.labels[u] < lv && !inst.st.Processed(int(u)) {
			return true
		}
	}
	return false
}

// Dead always reports false; every vertex must be colored.
func (inst *Instance) Dead(int) bool { return false }

// Process assigns v the smallest color unused among its higher-priority
// neighbors. The used-color scratch lives on the stack for vertices whose
// neighbors use fewer than 128 colors, so the hot loop over the CSR
// adjacency does not allocate on bounded-degree graphs.
func (inst *Instance) Process(v int) {
	lv := inst.labels[v]
	var scratch [128]bool
	used := scratch[:0]
	for _, u := range inst.g.Neighbors(v) {
		if inst.labels[u] >= lv {
			continue
		}
		c := inst.colors[u]
		if c < 0 {
			continue
		}
		for int(c) >= len(used) {
			used = append(used, false)
		}
		used[c] = true
	}
	color := int32(len(used))
	for c, taken := range used {
		if !taken {
			color = int32(c)
			break
		}
	}
	inst.colors[v] = color
}

// Colors returns the computed coloring. It must only be called after the
// execution has finished.
func (inst *Instance) Colors() []int32 {
	out := make([]int32, len(inst.colors))
	copy(out, inst.colors)
	return out
}

// Sequential computes the greedy coloring directly, without the framework.
// It is the oracle Process is checked against, so it keeps its own loop:
// a vertex of degree d gets a color of at most d, so one table of
// MaxDegree()+1 slots covers every vertex. Slot c holds v+1 while v is
// being colored if a neighbor of v has color c; the stamp is unique per
// vertex, so the table is never cleared and the whole run allocates a
// constant number of times.
func Sequential(g *graph.Graph, labels []uint32) []int32 {
	n := g.NumVertices()
	colors := make([]int32, n)
	for i := range colors {
		colors[i] = NoColor
	}
	taken := make([]int32, g.MaxDegree()+1)
	for _, task := range core.TasksByLabel(labels) {
		v := int(task)
		stamp := int32(v + 1)
		for _, u := range g.Neighbors(v) {
			if c := colors[u]; c >= 0 {
				taken[c] = stamp
			}
		}
		var c int32
		for taken[c] == stamp {
			c++
		}
		colors[v] = c
	}
	return colors
}

// RunRelaxed executes greedy coloring with a sequential-model scheduler and
// returns the coloring along with the execution counters.
func RunRelaxed(g *graph.Graph, labels []uint32, s sched.Scheduler) ([]int32, core.Result, error) {
	res, err := core.RunRelaxed(New(g), labels, s)
	if err != nil {
		return nil, core.Result{}, fmt.Errorf("coloring: relaxed execution: %w", err)
	}
	return res.Instance.(*Instance).Colors(), res, nil
}

// RunConcurrent executes greedy coloring with worker goroutines sharing a
// concurrent scheduler.
func RunConcurrent(g *graph.Graph, labels []uint32, s sched.Concurrent, policy core.Policy, opts core.Options) ([]int32, core.Result, error) {
	res, err := core.RunConcurrent(New(g), labels, s, policy, opts)
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

// Verify checks that colors is a proper coloring of g: every vertex has a
// non-negative color and no edge connects two vertices of the same color.
func Verify(g *graph.Graph, colors []int32) error {
	n := g.NumVertices()
	if len(colors) != n {
		return fmt.Errorf("coloring: %d colors for %d vertices", len(colors), n)
	}
	for v := 0; v < n; v++ {
		if colors[v] < 0 {
			return fmt.Errorf("coloring: vertex %d is uncolored", v)
		}
		for _, u := range g.Neighbors(v) {
			if colors[u] == colors[v] {
				return fmt.Errorf("coloring: adjacent vertices %d and %d share color %d", v, u, colors[v])
			}
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
