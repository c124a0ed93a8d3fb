// Package mis implements greedy Maximal Independent Set in the relaxed
// scheduling framework — the paper's flagship application (Algorithm 4 and
// Theorem 2).
//
// The sequential greedy algorithm examines vertices in priority order and
// adds a vertex to the independent set iff none of its higher-priority
// neighbors was added. The framework version exposes the same decision as a
// core.Problem: a vertex is Blocked while it has a live (unprocessed, not
// dead) higher-priority neighbor, becomes Dead as soon as any neighbor joins
// the set, and Process adds it to the set and kills its neighbors. Theorem 2
// of the paper shows that executing this with a k-relaxed scheduler costs
// only poly(k) extra scheduler iterations beyond the unavoidable n,
// independent of the size or structure of the graph.
package mis

import (
	"fmt"

	"relaxsched/internal/bitset"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/sched"
)

// Problem is the greedy MIS problem on a graph. It implements core.Problem.
type Problem struct {
	g *graph.Graph
}

var _ core.Problem = (*Problem)(nil)

// New returns the greedy MIS problem for g.
func New(g *graph.Graph) *Problem { return &Problem{g: g} }

// NumTasks returns the number of vertices.
func (p *Problem) NumTasks() int { return p.g.NumVertices() }

// NewInstance binds the problem to an execution.
func (p *Problem) NewInstance(st core.State) core.Instance {
	n := p.g.NumVertices()
	return &Instance{
		g:      p.g,
		st:     st,
		labels: core.LabelsOf(st),
		inSet:  bitset.NewAtomic(n),
		dead:   bitset.NewAtomic(n),
	}
}

// Instance is a bound MIS execution. It is safe for concurrent use by the
// framework's worker goroutines. The priority labels are held as a flat
// slice so the Blocked scan over the CSR adjacency reads them without an
// interface dispatch per neighbor.
type Instance struct {
	g      *graph.Graph
	st     core.State
	labels []uint32
	inSet  *bitset.Atomic
	dead   *bitset.Atomic
}

var _ core.Instance = (*Instance)(nil)

// Blocked reports whether v still has a live higher-priority neighbor.
func (inst *Instance) Blocked(v int) bool {
	lv := inst.labels[v]
	for _, u := range inst.g.Neighbors(v) {
		w := int(u)
		if inst.labels[w] < lv && !inst.st.Processed(w) && !inst.dead.Get(w) {
			return true
		}
	}
	return false
}

// Dead reports whether some neighbor of v has already joined the set.
func (inst *Instance) Dead(v int) bool { return inst.dead.Get(v) }

// Process adds v to the independent set and kills its neighbors.
func (inst *Instance) Process(v int) {
	inst.inSet.Set(v)
	for _, u := range inst.g.Neighbors(v) {
		inst.dead.Set(int(u))
	}
}

// InSet returns the computed independent set as a boolean membership slice.
// It must only be called after the execution has finished.
func (inst *Instance) InSet() []bool {
	out := make([]bool, inst.g.NumVertices())
	for v := range out {
		out[v] = inst.inSet.Get(v)
	}
	return out
}

// Size returns the number of vertices in the computed independent set.
func (inst *Instance) Size() int { return inst.inSet.Count() }

// Sequential computes the lexicographically-first MIS with respect to the
// given labels directly, without the scheduling framework. It is the
// correctness oracle and the single-threaded baseline of the paper's plots.
func Sequential(g *graph.Graph, labels []uint32) []bool {
	n := g.NumVertices()
	order := core.TasksByLabel(labels)
	inSet := make([]bool, n)
	excluded := make([]bool, n)
	for _, task := range order {
		v := int(task)
		if excluded[v] {
			continue
		}
		inSet[v] = true
		for _, u := range g.Neighbors(v) {
			excluded[u] = true
		}
	}
	return inSet
}

// RunRelaxed executes greedy MIS with a sequential-model scheduler
// (Algorithm 4) and returns the independent set along with the execution
// counters.
func RunRelaxed(g *graph.Graph, labels []uint32, s sched.Scheduler) ([]bool, core.Result, error) {
	res, err := core.RunRelaxed(New(g), labels, s)
	if err != nil {
		return nil, core.Result{}, fmt.Errorf("mis: relaxed execution: %w", err)
	}
	return res.Instance.(*Instance).InSet(), res, nil
}

// RunConcurrent executes greedy MIS with worker goroutines sharing a
// concurrent scheduler and returns the independent set along with the
// execution counters.
func RunConcurrent(g *graph.Graph, labels []uint32, s sched.Concurrent, policy core.Policy, opts core.Options) ([]bool, core.Result, error) {
	res, err := core.RunConcurrent(New(g), labels, s, policy, opts)
	if err != nil {
		return nil, core.Result{}, fmt.Errorf("mis: concurrent execution: %w", err)
	}
	return res.Instance.(*Instance).InSet(), res, nil
}

// Verify checks that inSet is an independent set of g and that it is maximal
// (every vertex outside the set has a neighbor inside it).
func Verify(g *graph.Graph, inSet []bool) error {
	n := g.NumVertices()
	if len(inSet) != n {
		return fmt.Errorf("mis: set has %d entries for %d vertices", len(inSet), n)
	}
	for v := 0; v < n; v++ {
		hasSetNeighbor := false
		for _, u := range g.Neighbors(v) {
			if inSet[u] {
				hasSetNeighbor = true
				if inSet[v] {
					return fmt.Errorf("mis: adjacent vertices %d and %d are both in the set", v, u)
				}
			}
		}
		if !inSet[v] && !hasSetNeighbor {
			return fmt.Errorf("mis: vertex %d is outside the set but has no neighbor inside (not maximal)", v)
		}
	}
	return nil
}

// Equal reports whether two membership slices describe the same vertex set.
func Equal(a, b []bool) bool {
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
