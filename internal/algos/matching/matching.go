// Package matching implements greedy maximal matching in the relaxed
// scheduling framework.
//
// The sequential greedy algorithm examines edges in priority order and adds
// an edge to the matching iff neither endpoint is already matched. The paper
// treats matching as MIS on the line graph ("one can view matching as an
// independent set of edges"); this package provides both that reduction
// (ViaLineGraph) and a direct edge-task formulation that avoids materializing
// the line graph: each edge is a task, an edge is Blocked while an incident
// higher-priority edge is still live, and becomes Dead as soon as one of its
// endpoints is matched. Theorem 2 therefore applies: the relaxation overhead
// is poly(k), independent of graph size.
package matching

import (
	"fmt"

	"relaxsched/internal/algos/mis"
	"relaxsched/internal/bitset"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/sched"
)

// Problem is the greedy maximal matching problem on a graph, with one task
// per edge. It implements core.Problem. The edge-incidence index is stored
// as a flat CSR pair (offsets + ids), matching the graph core's layout so
// the Blocked hot loop scans one contiguous run per endpoint.
type Problem struct {
	g      *graph.Graph
	edges  []graph.Edge
	incOff []uint32 // len n+1; ids incident to v are incIDs[incOff[v]:incOff[v+1]]
	incIDs []int32
}

var _ core.Problem = (*Problem)(nil)

// New returns the greedy matching problem for g.
func New(g *graph.Graph) *Problem {
	edges := g.Edges()
	incOff, incIDs := graph.IncidenceCSR(g, edges)
	return &Problem{g: g, edges: edges, incOff: incOff, incIDs: incIDs}
}

// incident returns the ids of the edges incident to vertex v.
func (p *Problem) incident(v int32) []int32 {
	return p.incIDs[p.incOff[v]:p.incOff[v+1]]
}

// NumTasks returns the number of edges.
func (p *Problem) NumTasks() int { return len(p.edges) }

// Edges returns the edge list indexed by task id. The returned slice must
// not be modified.
func (p *Problem) Edges() []graph.Edge { return p.edges }

// NewInstance binds the problem to an execution.
func (p *Problem) NewInstance(st core.State) core.Instance {
	return &Instance{
		p:             p,
		st:            st,
		labels:        core.LabelsOf(st),
		inMatching:    bitset.NewAtomic(len(p.edges)),
		vertexMatched: bitset.NewAtomic(p.g.NumVertices()),
	}
}

// Instance is a bound matching execution, safe for concurrent use. The
// priority labels are held as a flat slice so the Blocked scan over the
// incidence CSR reads them without an interface dispatch per entry.
type Instance struct {
	p             *Problem
	st            core.State
	labels        []uint32
	inMatching    *bitset.Atomic
	vertexMatched *bitset.Atomic
}

var _ core.Instance = (*Instance)(nil)

// Blocked reports whether edge task e still has a live incident
// higher-priority edge.
func (inst *Instance) Blocked(e int) bool {
	le := inst.labels[e]
	edge := inst.p.edges[e]
	for _, endpoint := range [2]int32{edge.U, edge.V} {
		for _, f := range inst.p.incident(endpoint) {
			fi := int(f)
			if fi == e {
				continue
			}
			if inst.labels[fi] < le && !inst.st.Processed(fi) && inst.live(fi) {
				return true
			}
		}
	}
	return false
}

// live reports whether the unprocessed edge f may still join the matching —
// or is joining it right now. An edge in the middle of its own Process has
// one endpoint marked and the other not yet: dead(f) already reads true, but
// f is the opposite of out of the race, and an edge at its unmarked endpoint
// that took it for dead would join the matching beside it. Process sets
// inMatching before either endpoint bit and the bitsets are sequentially
// consistent, so reading dead first and inMatching second cannot miss that
// state.
func (inst *Instance) live(f int) bool {
	return !inst.dead(f) || inst.inMatching.Get(f)
}

// dead reports whether edge f can no longer join the matching because one of
// its endpoints is already matched.
func (inst *Instance) dead(f int) bool {
	edge := inst.p.edges[f]
	return inst.vertexMatched.Get(int(edge.U)) || inst.vertexMatched.Get(int(edge.V))
}

// Dead reports whether an endpoint of e is already matched.
func (inst *Instance) Dead(e int) bool { return inst.dead(e) }

// Process adds edge e to the matching and marks both endpoints matched.
func (inst *Instance) Process(e int) {
	inst.inMatching.Set(e)
	edge := inst.p.edges[e]
	inst.vertexMatched.Set(int(edge.U))
	inst.vertexMatched.Set(int(edge.V))
}

// Matching returns the computed matching as a boolean slice indexed by edge
// task id. It must only be called after the execution has finished.
func (inst *Instance) Matching() []bool {
	out := make([]bool, len(inst.p.edges))
	for e := range out {
		out[e] = inst.inMatching.Get(e)
	}
	return out
}

// MatchedEdges returns the matched edges themselves.
func (inst *Instance) MatchedEdges() []graph.Edge {
	var out []graph.Edge
	for e, edge := range inst.p.edges {
		if inst.inMatching.Get(e) {
			out = append(out, edge)
		}
	}
	return out
}

// Sequential computes the greedy maximal matching directly. labels is a
// priority permutation over edge ids (the order of Problem.Edges / g.Edges).
func Sequential(g *graph.Graph, labels []uint32) []bool {
	edges := g.Edges()
	order := core.TasksByLabel(labels)
	matched := make([]bool, len(edges))
	vertexMatched := make([]bool, g.NumVertices())
	for _, task := range order {
		e := int(task)
		edge := edges[e]
		if vertexMatched[edge.U] || vertexMatched[edge.V] {
			continue
		}
		matched[e] = true
		vertexMatched[edge.U] = true
		vertexMatched[edge.V] = true
	}
	return matched
}

// RunRelaxed executes greedy matching with a sequential-model scheduler and
// returns the matching along with the execution counters.
func RunRelaxed(g *graph.Graph, labels []uint32, s sched.Scheduler) ([]bool, core.Result, error) {
	res, err := core.RunRelaxed(New(g), labels, s)
	if err != nil {
		return nil, core.Result{}, fmt.Errorf("matching: relaxed execution: %w", err)
	}
	return res.Instance.(*Instance).Matching(), res, nil
}

// RunConcurrent executes greedy matching with worker goroutines sharing a
// concurrent scheduler.
func RunConcurrent(g *graph.Graph, labels []uint32, s sched.Concurrent, policy core.Policy, opts core.Options) ([]bool, core.Result, error) {
	res, err := core.RunConcurrent(New(g), labels, s, policy, opts)
	if err != nil {
		return nil, core.Result{}, fmt.Errorf("matching: concurrent execution: %w", err)
	}
	return res.Instance.(*Instance).Matching(), res, nil
}

// ViaLineGraph computes the same greedy matching by building the line graph
// of g and running greedy MIS on it — the reduction the paper describes
// ("converting it to a graph G', where G' has a vertex for each edge in G").
// It is provided mainly as a cross-check: its output must equal Sequential's
// for the same edge labels.
func ViaLineGraph(g *graph.Graph, labels []uint32) []bool {
	lg, _ := graph.LineGraph(g)
	return mis.Sequential(lg, labels)
}

// Verify checks that matched is a valid maximal matching of g: no two
// matched edges share an endpoint, and every unmatched edge has a matched
// endpoint.
func Verify(g *graph.Graph, matched []bool) error {
	edges := g.Edges()
	if len(matched) != len(edges) {
		return fmt.Errorf("matching: %d entries for %d edges", len(matched), len(edges))
	}
	vertexMatched := make([]bool, g.NumVertices())
	for e, isMatched := range matched {
		if !isMatched {
			continue
		}
		edge := edges[e]
		if vertexMatched[edge.U] || vertexMatched[edge.V] {
			return fmt.Errorf("matching: edge %d (%d,%d) shares an endpoint with another matched edge", e, edge.U, edge.V)
		}
		vertexMatched[edge.U] = true
		vertexMatched[edge.V] = true
	}
	for e, edge := range edges {
		if !matched[e] && !vertexMatched[edge.U] && !vertexMatched[edge.V] {
			return fmt.Errorf("matching: edge %d (%d,%d) could be added (not maximal)", e, edge.U, edge.V)
		}
	}
	return nil
}

// Equal reports whether two matchings are identical.
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

// Size returns the number of matched edges.
func Size(matched []bool) int {
	count := 0
	for _, m := range matched {
		if m {
			count++
		}
	}
	return count
}
