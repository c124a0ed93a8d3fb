package workload

import (
	"relaxsched/internal/core"
	"relaxsched/internal/sched"
)

// vecOutput is the Output implementation shared by every workload: the raw
// result vector (retained so Verify can check it semantically), its
// fingerprint, and a prerendered summary line.
type vecOutput[T any] struct {
	data        T
	fingerprint uint64
	summary     string
}

func (o *vecOutput[T]) Fingerprint() uint64 { return o.fingerprint }
func (o *vecOutput[T]) Summary() string     { return o.summary }

// engine returns the options the core engine takes; Policy is not among
// them, it configures the static adapter.
func (o ConcOptions) engine() core.Options {
	return core.Options{Workers: o.Workers, BatchSize: o.BatchSize, Cancel: o.Cancel, Tunable: o.Tunable}
}

// staticInstance adapts a static-contract workload — a core.Problem plus a
// priority permutation — to the Instance interface. The per-workload files
// supply only the closures that differ: the sequential baseline, the
// output/fingerprint extraction, and the semantic verifier.
type staticInstance struct {
	labels     []uint32
	problem    core.Problem
	sequential func() Output
	output     func(core.Instance) Output
	verify     func(Output) error
}

var _ Instance = (*staticInstance)(nil)

func (si *staticInstance) NumTasks() int         { return si.problem.NumTasks() }
func (si *staticInstance) RunSequential() Output { return si.sequential() }

// staticCost maps framework counters to the uniform Cost: the headline
// wasted-work metric is the paper's "extra iterations".
func staticCost(res core.Result) Cost {
	return Cost{
		Pops:       res.Iterations,
		StalePops:  res.FailedDeletes,
		Wasted:     res.ExtraIterations(),
		EmptyPolls: res.EmptyPolls,
	}
}

func (si *staticInstance) RunRelaxed(s sched.Scheduler) (Output, Cost, error) {
	res, err := core.RunRelaxed(si.problem, si.labels, s)
	if err != nil {
		return nil, Cost{}, err
	}
	return si.output(res.Instance), staticCost(res), nil
}

func (si *staticInstance) RunConcurrent(s sched.Concurrent, opts ConcOptions) (Output, Cost, error) {
	res, err := core.RunConcurrent(si.problem, si.labels, s, opts.Policy, opts.engine())
	if err != nil {
		return nil, Cost{}, err
	}
	return si.output(res.Instance), staticCost(res), nil
}

func (si *staticInstance) Verify(out Output) error { return si.verify(out) }

func (si *staticInstance) Matches(reference, got Output) error {
	return fingerprintMatch("determinism", reference, got)
}

// dynamicInstance adapts a dynamic-contract workload to the Instance
// interface; the per-workload files supply the closures (which wrap the algo
// package's Run functions and map its stats to the uniform Cost).
type dynamicInstance struct {
	numTasks   int
	sequential func() Output
	relaxed    func(s sched.Scheduler) (Output, Cost, error)
	concurrent func(s sched.Concurrent, opts core.Options) (Output, Cost, error)
	verify     func(Output) error
	// matches overrides the exactness fingerprint comparison for workloads
	// with approximate (tolerance-bounded) outputs; nil selects fingerprint
	// equality.
	matches func(reference, got Output) error
}

var _ Instance = (*dynamicInstance)(nil)

func (di *dynamicInstance) NumTasks() int         { return di.numTasks }
func (di *dynamicInstance) RunSequential() Output { return di.sequential() }

func (di *dynamicInstance) RunRelaxed(s sched.Scheduler) (Output, Cost, error) {
	return di.relaxed(s)
}

func (di *dynamicInstance) RunConcurrent(s sched.Concurrent, opts ConcOptions) (Output, Cost, error) {
	return di.concurrent(s, opts.engine())
}

func (di *dynamicInstance) Verify(out Output) error { return di.verify(out) }

func (di *dynamicInstance) Matches(reference, got Output) error {
	if di.matches != nil {
		return di.matches(reference, got)
	}
	return fingerprintMatch("exactness", reference, got)
}
