// Package listcontract implements list contraction in the relaxed scheduling
// framework, one of the paper's examples of an iterative algorithm with
// explicit (and inherently sparse) dependencies.
//
// The input is a collection of doubly linked lists over n nodes; contracting
// a node v splices it out by swinging two pointers (v.prev.next = v.next and
// v.next.prev = v.prev). Processing nodes in priority order, a node depends
// only on its current list neighbors of higher priority, so the dependency
// graph has at most n-1 edges and, by Theorem 1, relaxation costs only
// poly(k) extra iterations.
//
// The output recorded for every node is the pair of list neighbors it saw at
// the moment it was contracted. This pair is a deterministic function of the
// input list and the priority permutation, so comparing it across executions
// is the determinism check used by the tests.
package listcontract

import (
	"fmt"
	"sync/atomic"

	"relaxsched/internal/core"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
)

// None marks the absence of a neighbor (head's prev / tail's next).
const None = int32(-1)

// Problem is the list contraction problem. It implements core.Problem.
type Problem struct {
	next []int32
	prev []int32
}

var _ core.Problem = (*Problem)(nil)

// New returns a list contraction problem for the list(s) described by next:
// next[i] is the successor of node i, or None. Every node must be the
// successor of at most one node, and no node may be its own successor.
func New(next []int32) (*Problem, error) {
	n := len(next)
	prev := make([]int32, n)
	for i := range prev {
		prev[i] = None
	}
	for i, nx := range next {
		if nx == None {
			continue
		}
		if int(nx) < 0 || int(nx) >= n {
			return nil, fmt.Errorf("listcontract: node %d has out-of-range successor %d", i, nx)
		}
		if int(nx) == i {
			return nil, fmt.Errorf("listcontract: node %d is its own successor", i)
		}
		if prev[nx] != None {
			return nil, fmt.Errorf("listcontract: node %d has two predecessors (%d and %d)", nx, prev[nx], i)
		}
		prev[nx] = int32(i)
	}
	return &Problem{next: append([]int32(nil), next...), prev: prev}, nil
}

// NewChain returns the problem for a single chain 0 -> 1 -> ... -> n-1.
func NewChain(n int) *Problem {
	next := make([]int32, n)
	for i := range next {
		if i+1 < n {
			next[i] = int32(i + 1)
		} else {
			next[i] = None
		}
	}
	p, err := New(next)
	if err != nil {
		// A chain is always valid; this is unreachable.
		panic(err)
	}
	return p
}

// NewRandomList returns a problem whose n nodes form a single list in a
// uniformly random order.
func NewRandomList(n int, r *rng.Rand) *Problem {
	order := r.Perm(n)
	next := make([]int32, n)
	for i := range next {
		next[i] = None
	}
	for i := 0; i+1 < n; i++ {
		next[order[i]] = int32(order[i+1])
	}
	p, err := New(next)
	if err != nil {
		// A permutation-derived list is always valid; this is unreachable.
		panic(err)
	}
	return p
}

// NumTasks returns the number of list nodes.
func (p *Problem) NumTasks() int { return len(p.next) }

// NewInstance binds the problem to an execution.
func (p *Problem) NewInstance(st core.State) core.Instance {
	n := len(p.next)
	inst := &Instance{
		st:           st,
		next:         make([]atomic.Int32, n),
		prev:         make([]atomic.Int32, n),
		contractPrev: make([]int32, n),
		contractNext: make([]int32, n),
	}
	for i := 0; i < n; i++ {
		inst.next[i].Store(p.next[i])
		inst.prev[i].Store(p.prev[i])
	}
	return inst
}

// Instance is a bound list contraction execution, safe for concurrent use.
type Instance struct {
	st           core.State
	next         []atomic.Int32
	prev         []atomic.Int32
	contractPrev []int32
	contractNext []int32
}

var _ core.Instance = (*Instance)(nil)

// Blocked reports whether v currently has a higher-priority list neighbor,
// or a neighbor whose splice is still in flight.
//
// Unlike problems over immutable dependency structures, the processed bit of
// the observed neighbor must NOT be consulted here: if a loaded neighbor p
// has a smaller label, v is blocked even when p is already marked processed.
// A processed p in v's pointer is a transient mid-splice view — p's
// contraction rewired v's pointer before p's processed bit was set, but this
// goroutine may observe the bit without the pointer update. Proceeding on
// that stale view would let v contract against a neighborhood the sequential
// order never produces (p's replacement may be an unprocessed lower-priority
// node). Reporting blocked is always safe: the re-delivered v observes the
// rewired pointer, and the node actually blocking v is never waiting on v
// (its label is smaller), so progress is preserved.
//
// For the same reason a link that the neighbor does not mirror yet blocks v:
// a contraction of x between p and v swings next[p] to v before it swings
// prev[v] to p, and in between p no longer sees x at all. If p contracted on
// that view, x's second store would land after p's own and leave v pointing
// at the contracted p forever. The half-made link lasts two stores, so the
// block is transient.
func (inst *Instance) Blocked(v int) bool {
	lv := inst.st.Label(v)
	if p := inst.prev[v].Load(); p != None && (inst.st.Label(int(p)) < lv || inst.next[p].Load() != int32(v)) {
		return true
	}
	if nx := inst.next[v].Load(); nx != None && (inst.st.Label(int(nx)) < lv || inst.prev[nx].Load() != int32(v)) {
		return true
	}
	return false
}

// Dead always reports false; every node is contracted.
func (inst *Instance) Dead(int) bool { return false }

// Process contracts node v: its neighbors are linked to each other and the
// neighbor pair observed at contraction time is recorded as the output.
func (inst *Instance) Process(v int) {
	p := inst.prev[v].Load()
	nx := inst.next[v].Load()
	inst.contractPrev[v] = p
	inst.contractNext[v] = nx
	if p != None {
		inst.next[p].Store(nx)
	}
	if nx != None {
		inst.prev[nx].Store(p)
	}
}

// Contractions returns, for every node, the (prev, next) pair it observed
// when it was contracted. It must only be called after the execution has
// finished.
func (inst *Instance) Contractions() ([]int32, []int32) {
	prevOut := append([]int32(nil), inst.contractPrev...)
	nextOut := append([]int32(nil), inst.contractNext...)
	return prevOut, nextOut
}

// Sequential contracts the list in priority order without the framework and
// returns the per-node (prev, next) contraction records.
func Sequential(p *Problem, labels []uint32) ([]int32, []int32) {
	n := p.NumTasks()
	next := append([]int32(nil), p.next...)
	prev := append([]int32(nil), p.prev...)
	contractPrev := make([]int32, n)
	contractNext := make([]int32, n)
	for _, task := range core.TasksByLabel(labels) {
		v := int(task)
		pn, nx := prev[v], next[v]
		contractPrev[v] = pn
		contractNext[v] = nx
		if pn != None {
			next[pn] = nx
		}
		if nx != None {
			prev[nx] = pn
		}
	}
	return contractPrev, contractNext
}

// RunRelaxed executes list contraction with a sequential-model scheduler.
func RunRelaxed(p *Problem, labels []uint32, s sched.Scheduler) ([]int32, []int32, core.Result, error) {
	res, err := core.RunRelaxed(p, labels, s)
	if err != nil {
		return nil, nil, core.Result{}, fmt.Errorf("listcontract: relaxed execution: %w", err)
	}
	cp, cn := res.Instance.(*Instance).Contractions()
	return cp, cn, res, nil
}

// RunConcurrent executes list contraction with worker goroutines sharing a
// concurrent scheduler.
func RunConcurrent(p *Problem, labels []uint32, s sched.Concurrent, policy core.Policy, opts core.Options) ([]int32, []int32, core.Result, error) {
	res, err := core.RunConcurrent(p, labels, s, policy, opts)
	if err != nil {
		return nil, nil, core.Result{}, fmt.Errorf("listcontract: concurrent execution: %w", err)
	}
	cp, cn := res.Instance.(*Instance).Contractions()
	return cp, cn, res, nil
}

// Verify checks the key invariant of priority-ordered contraction: the
// neighbors a node observes when it is contracted are still uncontracted,
// which (because the node was unblocked) means their priority labels are
// larger than its own. A node may record itself as a neighbor only when a
// cycle has collapsed onto it (it is then the last node of that cycle).
func Verify(p *Problem, labels []uint32, contractPrev, contractNext []int32) error {
	n := p.NumTasks()
	if len(contractPrev) != n || len(contractNext) != n {
		return fmt.Errorf("listcontract: record length mismatch")
	}
	if len(labels) != n {
		return fmt.Errorf("listcontract: %d labels for %d nodes", len(labels), n)
	}
	for v := 0; v < n; v++ {
		for _, x := range [2]int32{contractPrev[v], contractNext[v]} {
			if x == None {
				continue
			}
			if int(x) < 0 || int(x) >= n {
				return fmt.Errorf("listcontract: node %d recorded out-of-range neighbor %d", v, x)
			}
			if int(x) == v {
				continue // collapsed cycle
			}
			if labels[x] < labels[v] {
				return fmt.Errorf("listcontract: node %d (label %d) observed higher-priority neighbor %d (label %d) at contraction time",
					v, labels[v], x, labels[x])
			}
		}
	}
	return nil
}

// Equal reports whether two contraction records are identical.
func Equal(aPrev, aNext, bPrev, bNext []int32) bool {
	if len(aPrev) != len(bPrev) || len(aNext) != len(bNext) {
		return false
	}
	for i := range aPrev {
		if aPrev[i] != bPrev[i] || aNext[i] != bNext[i] {
			return false
		}
	}
	return true
}
