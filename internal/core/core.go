// Package core is the execution engine every workload in this repository
// runs on: one batched worker loop and one termination protocol, serving two
// contracts.
//
// # The engine and the dynamic contract
//
// A DynamicProblem is a stream of prioritized items: a once-per-item
// staleness check plus an expansion that emits follow-on items through an
// Emitter. RunDynamic drives it in the paper's sequential model (one item
// per pop); RunDynamicConcurrent drives it with worker goroutines that pop
// and insert in batches, detect termination with per-worker balance
// registers (the protocol and its invariant are stated once, on
// RunDynamicConcurrent) and back off when idle. Shortest paths, k-core
// peeling and residual-push PageRank implement the contract directly: their
// priorities are tentative quantities (distances, degrees, residual mass)
// that change during the execution, and exactness comes from the problem's
// monotone state updates, so relaxation costs only stale pops and
// re-evaluations, never wrong output.
//
// # The static contract (the paper's framework, Section 2)
//
// A Problem describes a set of n tasks and, once bound to an execution via
// NewInstance, can answer two questions about a task — is it Blocked (does it
// still have an unprocessed higher-priority dependency) and is it Dead (has
// it become unnecessary, the Algorithm 4 shortcut) — and can Process it.
// Tasks are totally ordered by a priority permutation; the framework
// guarantees that a task is processed only after all of its higher-priority
// dependencies have been resolved, which makes the output identical to the
// sequential algorithm's regardless of how relaxed the scheduler is.
//
// The framework is a special case of the dynamic contract, and that is how
// it is implemented (static.go): the n tasks are the seeds, a delivered task
// is stale when it is Dead, and expanding a Blocked task requeues it at its
// own label. Three entry points:
//
//   - RunSequential — Algorithm 1: tasks in strict priority order, every
//     task handled exactly once. It shares nothing with the engine and is
//     the oracle the other two are tested against.
//   - RunRelaxed — Algorithms 2 and 4 in the paper's sequential model: the
//     adapter over RunDynamic.
//   - RunConcurrent — the shared-memory version used for the paper's Figure 2
//     experiments: the adapter over RunDynamicConcurrent.
//
// Workloads of both contracts register in internal/workload, which is how
// the CLIs and the bench harness reach them.
package core

import (
	"errors"
	"fmt"

	"relaxsched/internal/bitset"
	"relaxsched/internal/rng"
)

// State is the view of execution state a problem instance may query. The
// implementation backing RunConcurrent is safe for concurrent use.
type State interface {
	// NumTasks returns the number of tasks in the execution.
	NumTasks() int
	// Processed reports whether task v has been processed.
	Processed(v int) bool
	// Label returns the priority label of task v: its position in the
	// priority permutation, with 0 the highest priority.
	Label(v int) uint32
}

// LabelView is an optional State extension: states whose labels live in a
// flat slice expose it so per-neighbor hot loops can read labels without an
// interface call per entry. The returned slice is the fixed priority
// permutation and must not be modified.
type LabelView interface {
	Labels() []uint32
}

// LabelsOf returns the flat label slice of st, borrowing it via LabelView
// when available and materializing a copy with n Label queries otherwise.
// Problem instances call it once at binding time so their Blocked/Process
// loops index a slice instead of dispatching through the State interface for
// every neighbor scanned.
func LabelsOf(st State) []uint32 {
	if lv, ok := st.(LabelView); ok {
		return lv.Labels()
	}
	labels := make([]uint32, st.NumTasks())
	for v := range labels {
		labels[v] = st.Label(v)
	}
	return labels
}

// Problem describes an iterative algorithm with explicit dependencies.
// Implementations live in the algos sub-packages (MIS, matching, coloring,
// list contraction, Knuth shuffle).
type Problem interface {
	// NumTasks returns the number of tasks the problem defines.
	NumTasks() int
	// NewInstance binds the problem to an execution. The instance may keep
	// the State and query it lazily. Instances used with RunConcurrent must
	// be safe for concurrent calls on distinct tasks.
	NewInstance(st State) Instance
}

// Instance is a Problem bound to a single execution.
type Instance interface {
	// Blocked reports whether task v still has an unprocessed, live
	// higher-priority dependency and therefore cannot be processed yet.
	Blocked(v int) bool
	// Dead reports whether task v no longer needs processing (e.g. an MIS
	// vertex with a neighbor already in the independent set). Problems
	// without this shortcut simply return false.
	Dead(v int) bool
	// Process executes task v. The framework calls Process at most once per
	// task and only when the task is neither Blocked nor Dead.
	Process(v int)
}

// Policy selects how RunConcurrent handles a task that is delivered while
// still blocked on a higher-priority dependency.
type Policy int

const (
	// Reinsert puts the blocked task back into the scheduler and moves on —
	// the behaviour of Algorithm 2/4, the right choice for relaxed
	// schedulers, and the zero value.
	Reinsert Policy = iota
	// Wait spins until the blocking dependencies resolve — the behaviour of
	// the paper's exact concurrent framework ("we elect to use a backoff
	// scheme wherein if an unprocessed predecessor is encountered, we wait
	// for the predecessor to process").
	Wait
)

// Result reports what an execution did. Counters follow the paper's cost
// model: Iterations counts scheduler deliveries (successful ApproxGetMin
// calls), of which FailedDeletes were wasted on blocked tasks and DeadSkips
// discarded dead tasks; the "extra iterations" of Table 1 are
// Iterations - NumTasks.
type Result struct {
	// Processed is the number of tasks actually processed.
	Processed int64
	// DeadSkips is the number of deliveries that found the task dead.
	DeadSkips int64
	// FailedDeletes is the number of deliveries that found the task blocked
	// and re-inserted it (under Wait: only those whose bounded wait ran out).
	FailedDeletes int64
	// Waits is the number of deliveries that found the task blocked and
	// spun until it was released (Wait policy only).
	Waits int64
	// Iterations is the total number of successful scheduler deliveries.
	Iterations int64
	// EmptyPolls is the number of ApproxGetMin calls that returned nothing
	// while work remained (concurrent executions only).
	EmptyPolls int64
	// Instance is the bound problem instance, from which callers retrieve
	// the algorithm's output.
	Instance Instance
}

// ExtraIterations returns Iterations minus the number of processed and
// skipped tasks — the paper's "number of extra iterations due to relaxation".
func (r Result) ExtraIterations() int64 {
	return r.Iterations - r.Processed - r.DeadSkips
}

// Errors returned by the executors.
var (
	// ErrBadPermutation indicates the label slice is not a permutation of
	// [0, NumTasks).
	ErrBadPermutation = errors.New("core: labels are not a permutation of the task set")
	// ErrStuck indicates the scheduler ran dry while unresolved tasks
	// remained, which means the Problem's dependency structure is cyclic or
	// its Blocked implementation is inconsistent.
	ErrStuck = errors.New("core: scheduler empty but unresolved tasks remain")
	// ErrNoWorkers indicates a concurrent execution was asked to run with
	// fewer than one worker.
	ErrNoWorkers = errors.New("core: worker count must be at least 1")
	// ErrNilProblem indicates a nil DynamicProblem.
	ErrNilProblem = errors.New("core: problem must not be nil")
	// ErrNilScheduler indicates a nil scheduler or scheduler factory.
	ErrNilScheduler = errors.New("core: scheduler must not be nil")
	// ErrBadBatch indicates a concurrent execution was given a negative batch
	// size.
	ErrBadBatch = errors.New("core: batch size must not be negative")
	// ErrCanceled indicates a concurrent execution was aborted through the
	// options' Cancel channel before it completed. The problem's state is
	// left partially updated and must be discarded.
	ErrCanceled = errors.New("core: execution canceled")
)

// RandomLabels returns a uniformly random priority permutation for n tasks:
// element v is the label (priority position) of task v.
func RandomLabels(n int, r *rng.Rand) []uint32 {
	labels := make([]uint32, n)
	perm := r.Perm(n)
	for pos, task := range perm {
		labels[task] = uint32(pos)
	}
	return labels
}

// IdentityLabels returns the identity permutation, i.e. task v has priority
// v. Problems whose iteration order is inherent (such as the Knuth shuffle)
// use it.
func IdentityLabels(n int) []uint32 {
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = uint32(i)
	}
	return labels
}

// TasksByLabel returns task ids sorted by increasing label, i.e. the
// permutation π with π[i] = the task of priority i. It is the inverse of the
// labels slice and is used to preload exact FIFO schedulers in priority
// order.
func TasksByLabel(labels []uint32) []int32 {
	order := make([]int32, len(labels))
	for task, label := range labels {
		order[label] = int32(task)
	}
	return order
}

// ValidateLabels checks that labels is a permutation of [0, n) and wraps
// ErrBadPermutation when it is not. The executors check every run's labels
// with it; a problem that lays its data out by label at bind time calls it
// first.
func ValidateLabels(n int, labels []uint32) error {
	if len(labels) != n {
		return fmt.Errorf("%w: got %d labels for %d tasks", ErrBadPermutation, len(labels), n)
	}
	seen := bitset.New(n)
	for _, l := range labels {
		if int(l) >= n {
			return fmt.Errorf("%w: label %d out of range", ErrBadPermutation, l)
		}
		if seen.Get(int(l)) {
			return fmt.Errorf("%w: label %d repeated", ErrBadPermutation, l)
		}
		seen.Set(int(l))
	}
	return nil
}
