package core

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"relaxsched/internal/sched"
)

// static presents a Problem bound to one execution as a DynamicProblem, so
// the paper's framework (Algorithms 2 and 4: pop, skip if dead, re-insert if
// blocked, else process) runs on the one engine: the seeds are the n tasks
// in label order, a delivered task is stale when it is Dead, and expanding a
// Blocked task requeues it at its own label — a failed delete.
type static struct {
	inst   Instance
	st     execState
	policy Policy
	// lateDead counts tasks found dead by the re-check inside Expand, waits
	// the blocked deliveries that spun under the Wait policy. Both are rare
	// next to a pop, so shared atomics cost nothing measurable.
	lateDead, waits atomic.Int64
}

// bindStatic validates the labels, binds p to st and returns the adapter
// with its seed items.
func bindStatic(p Problem, labels []uint32, st execState, policy Policy) (*static, []sched.Item, error) {
	if err := validateLabels(p.NumTasks(), labels); err != nil {
		return nil, nil, err
	}
	// Seeds in priority order, so an exact FIFO scheduler dispenses them
	// exactly as Algorithm 1 would (heap-based schedulers do not care).
	seeds := make([]sched.Item, len(labels))
	for task, label := range labels {
		seeds[label] = sched.Item{Task: int32(task), Priority: label}
	}
	return &static{inst: p.NewInstance(st), st: st, policy: policy}, seeds, nil
}

func (a *static) Stale(task int32, _ uint32) bool { return a.inst.Dead(int(task)) }

func (a *static) Expand(task int32, priority uint32, em *Emitter) {
	v := int(task)
	if a.inst.Blocked(v) && !a.waitOut(v) {
		em.Requeue(task, priority)
		return
	}
	// The task may have been killed since Stale looked (an MIS neighbor of
	// higher priority joined the independent set while it was blocked); the
	// re-check keeps the output identical to the sequential execution.
	if a.inst.Dead(v) {
		a.lateDead.Add(1)
		return
	}
	a.inst.Process(v)
	a.st.markProcessed(v)
}

func (a *static) Done() bool { return false }

// waitOut applies the Wait policy to a blocked task: it spins until v's
// blocking dependencies resolve and reports whether they did. The wait is
// bounded: if the dependencies do not resolve within the budget (for example
// because this is the only worker and the predecessor is still sitting in
// the scheduler), the caller falls back to requeueing the task so the
// execution always makes progress. Under Reinsert it reports false at once.
func (a *static) waitOut(v int) bool {
	if a.policy != Wait {
		return false
	}
	a.waits.Add(1)
	const maxSpins = 1 << 14
	for spin := 0; spin < maxSpins; spin++ {
		if a.inst.Dead(v) || !a.inst.Blocked(v) {
			return true
		}
		if spin > 16 {
			runtime.Gosched()
		}
	}
	return false
}

// result maps the engine's counters onto the framework's cost model.
func (a *static) result(ds DynamicStats) (Result, error) {
	res := Result{
		DeadSkips:     ds.StalePops + a.lateDead.Load(),
		FailedDeletes: ds.Requeues,
		Waits:         a.waits.Load(),
		Iterations:    ds.Pops,
		EmptyPolls:    ds.EmptyPolls,
		Instance:      a.inst,
	}
	res.Processed = res.Iterations - res.DeadSkips - res.FailedDeletes
	if unresolved := int64(a.st.NumTasks()) - res.Processed - res.DeadSkips; unresolved != 0 {
		return Result{}, fmt.Errorf("%w: %d tasks unresolved", ErrStuck, unresolved)
	}
	return res, nil
}

// RunRelaxed executes the problem with a (possibly relaxed) sequential-model
// scheduler, following Algorithm 2 — and, when the problem implements the
// Dead shortcut, Algorithm 4. Tasks delivered while blocked are re-inserted
// and counted as failed deletes; dead tasks are discarded. The output is
// identical to RunSequential with the same labels, no matter how relaxed the
// scheduler is.
func RunRelaxed(p Problem, labels []uint32, s sched.Scheduler) (Result, error) {
	a, seeds, err := bindStatic(p, labels, newSeqState(labels), Reinsert)
	if err != nil {
		return Result{}, err
	}
	ds, err := RunDynamic(a, seeds, s)
	if err != nil {
		return Result{}, err
	}
	return a.result(ds)
}

// RunConcurrent executes the problem with worker goroutines sharing a
// concurrent scheduler, as in the paper's Figure 2 experiments. The problem
// instance must be safe for concurrent calls on distinct tasks (all the
// algos packages in this library are). policy selects what happens to a task
// delivered while blocked: Reinsert for relaxed schedulers, Wait for the
// paper's exact FIFO baseline. The output is identical to RunSequential with
// the same labels.
func RunConcurrent(p Problem, labels []uint32, s sched.Concurrent, policy Policy, opts Options) (Result, error) {
	a, seeds, err := bindStatic(p, labels, newConcState(labels), policy)
	if err != nil {
		return Result{}, err
	}
	ds, err := RunDynamicConcurrent(a, seeds, s, opts)
	if err != nil {
		return Result{}, err
	}
	return a.result(ds)
}
