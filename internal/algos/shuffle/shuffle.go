// Package shuffle implements the Knuth (Fisher–Yates) shuffle in the relaxed
// scheduling framework, another of the paper's examples of an iterative
// algorithm with explicit, inherently sparse dependencies.
//
// The ascending Fisher–Yates variant processes iterations i = 0..n-1 in
// order, swapping A[i] with A[t_i] for a pre-drawn target t_i uniform in
// [0, i]. Iteration i conflicts only with the most recent earlier iteration
// that touched location t_i, so the dependency graph is a forest with at most
// n-1 edges; by Theorem 1 the relaxation overhead is poly(k) and independent
// of n. The output permutation is a deterministic function of the targets,
// so it is identical no matter how relaxed the scheduler is.
package shuffle

import (
	"fmt"
	"sync/atomic"

	"relaxsched/internal/core"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
)

// Problem is the Knuth shuffle problem: n iterations with pre-drawn swap
// targets. It implements core.Problem. The natural priority order of the
// iterations is the identity permutation (core.IdentityLabels); the
// randomness of the output comes entirely from the swap targets.
type Problem struct {
	targets []int32
	pred    []int32 // pred[i] = latest earlier iteration touching targets[i], or -1
}

var _ core.Problem = (*Problem)(nil)

// New returns a shuffle problem for the given swap targets. targets[i] must
// lie in [0, i].
func New(targets []int32) (*Problem, error) {
	n := len(targets)
	pred := make([]int32, n)
	lastToucher := make([]int32, n)
	for i := range lastToucher {
		lastToucher[i] = -1
	}
	for i, t := range targets {
		if int(t) < 0 || int(t) > i {
			return nil, fmt.Errorf("shuffle: target[%d] = %d outside [0,%d]", i, t, i)
		}
		pred[i] = lastToucher[t]
		lastToucher[t] = int32(i)
		lastToucher[i] = int32(i)
	}
	return &Problem{targets: append([]int32(nil), targets...), pred: pred}, nil
}

// RandomTargets draws uniform swap targets for n iterations from r. Using
// these targets with either Sequential or the framework produces a uniformly
// random permutation of [0, n).
func RandomTargets(n int, r *rng.Rand) []int32 {
	targets := make([]int32, n)
	for i := 1; i < n; i++ {
		targets[i] = int32(r.Intn(i + 1))
	}
	return targets
}

// NumTasks returns the number of iterations.
func (p *Problem) NumTasks() int { return len(p.targets) }

// Targets returns the swap targets. The returned slice must not be modified.
func (p *Problem) Targets() []int32 { return p.targets }

// NewInstance binds the problem to an execution.
func (p *Problem) NewInstance(st core.State) core.Instance {
	n := len(p.targets)
	inst := &Instance{p: p, st: st, perm: make([]atomic.Int32, n)}
	for i := 0; i < n; i++ {
		inst.perm[i].Store(int32(i))
	}
	return inst
}

// Instance is a bound shuffle execution, safe for concurrent use: two
// iterations that touch a common array location are ordered by the
// dependency chain, and the framework's processed bits provide the
// happens-before edges between them.
type Instance struct {
	p    *Problem
	st   core.State
	perm []atomic.Int32
}

var _ core.Instance = (*Instance)(nil)

// Blocked reports whether iteration i must still wait for the previous
// toucher of its swap target.
func (inst *Instance) Blocked(i int) bool {
	pred := inst.p.pred[i]
	return pred >= 0 && !inst.st.Processed(int(pred))
}

// Dead always reports false; every iteration executes.
func (inst *Instance) Dead(int) bool { return false }

// Process performs the swap of iteration i.
func (inst *Instance) Process(i int) {
	t := int(inst.p.targets[i])
	if t == i {
		return
	}
	a := inst.perm[i].Load()
	b := inst.perm[t].Load()
	inst.perm[i].Store(b)
	inst.perm[t].Store(a)
}

// Permutation returns the resulting permutation. It must only be called
// after the execution has finished.
func (inst *Instance) Permutation() []int32 {
	out := make([]int32, len(inst.perm))
	for i := range out {
		out[i] = inst.perm[i].Load()
	}
	return out
}

// Sequential performs the shuffle directly, iterating in index order.
func Sequential(targets []int32) []int32 {
	n := len(targets)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := 1; i < n; i++ {
		t := targets[i]
		perm[i], perm[t] = perm[t], perm[i]
	}
	return perm
}

// RunRelaxed executes the shuffle with a sequential-model scheduler. The
// labels are always the identity permutation, since the iteration order of a
// Knuth shuffle is fixed.
func RunRelaxed(targets []int32, s sched.Scheduler) ([]int32, core.Result, error) {
	p, err := New(targets)
	if err != nil {
		return nil, core.Result{}, err
	}
	res, err := core.RunRelaxed(p, core.IdentityLabels(p.NumTasks()), s)
	if err != nil {
		return nil, core.Result{}, fmt.Errorf("shuffle: relaxed execution: %w", err)
	}
	return res.Instance.(*Instance).Permutation(), res, nil
}

// RunConcurrent executes the shuffle with worker goroutines sharing a
// concurrent scheduler.
func RunConcurrent(targets []int32, s sched.Concurrent, policy core.Policy, opts core.Options) ([]int32, core.Result, error) {
	p, err := New(targets)
	if err != nil {
		return nil, core.Result{}, err
	}
	res, err := core.RunConcurrent(p, core.IdentityLabels(p.NumTasks()), s, policy, opts)
	if err != nil {
		return nil, core.Result{}, fmt.Errorf("shuffle: concurrent execution: %w", err)
	}
	return res.Instance.(*Instance).Permutation(), res, nil
}

// Verify checks that perm is a permutation of [0, n).
func Verify(perm []int32) error {
	seen := make([]bool, len(perm))
	for i, v := range perm {
		if int(v) < 0 || int(v) >= len(perm) {
			return fmt.Errorf("shuffle: position %d holds out-of-range value %d", i, v)
		}
		if seen[v] {
			return fmt.Errorf("shuffle: value %d appears more than once", v)
		}
		seen[v] = true
	}
	return nil
}

// Equal reports whether two permutations are identical.
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
