package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/multiqueue"
)

// TestRunConcurrentCancelBeforeStart: with an already-closed Cancel channel
// every worker aborts at its first batch boundary and the executor reports
// ErrCanceled instead of ErrStuck, even though tasks remain unresolved.
func TestRunConcurrentCancelBeforeStart(t *testing.T) {
	p := randomDepthProblem(500, 1500, rng.New(1))
	labels := RandomLabels(p.NumTasks(), rng.New(2))
	mq := multiqueue.NewConcurrent(8, p.NumTasks(), 3)
	cancel := make(chan struct{})
	close(cancel)
	_, err := RunConcurrent(p, labels, mq, Reinsert, Options{Workers: 4, Cancel: cancel})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

// gateProblem blocks every Process call until its gate channel closes, so a
// test can hold an execution mid-flight deterministically.
type gateProblem struct {
	n         int
	gate      chan struct{}
	processed atomic.Int64
}

func (p *gateProblem) NumTasks() int { return p.n }
func (p *gateProblem) NewInstance(st State) Instance {
	return &gateInstance{p: p}
}

type gateInstance struct{ p *gateProblem }

func (inst *gateInstance) Blocked(int) bool { return false }
func (inst *gateInstance) Dead(int) bool    { return false }
func (inst *gateInstance) Process(int) {
	if inst.p.processed.Add(1) == 1 {
		<-inst.p.gate // first task parks until the test fires cancellation
	}
}

// TestRunConcurrentCancelMidRun parks the execution on its first processed
// task, closes Cancel, releases the gate, and expects a prompt ErrCanceled:
// workers must notice the closed channel at the next batch boundary rather
// than draining the remaining tasks.
func TestRunConcurrentCancelMidRun(t *testing.T) {
	p := &gateProblem{n: 50_000, gate: make(chan struct{})}
	labels := IdentityLabels(p.n)
	mq := multiqueue.NewConcurrent(4, p.n, 7)
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		// Batch size 1: at most one task resolves per episode, so after the
		// gate releases the worker sees the closed Cancel channel within one
		// task's worth of work.
		_, err := RunConcurrent(p, labels, mq, Reinsert, Options{Workers: 1, BatchSize: 1, Cancel: cancel})
		done <- err
	}()
	for p.processed.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	close(cancel)
	close(p.gate)
	err := <-done
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if got := p.processed.Load(); got >= int64(p.n) {
		t.Fatalf("execution ran to completion (%d tasks) despite cancellation", got)
	}
}

// perpetualProblem re-emits one follow-on item per expansion, so the dynamic
// engine never drains on its own — the test for cancellation of executions
// that would otherwise run forever.
type perpetualProblem struct {
	expanded atomic.Int64
}

func (p *perpetualProblem) Stale(int32, uint32) bool { return false }
func (p *perpetualProblem) Expand(task int32, priority uint32, em *Emitter) {
	p.expanded.Add(1)
	em.Emit(task, priority+1)
}
func (p *perpetualProblem) Done() bool { return false }

// TestRunDynamicConcurrentCancel aborts a dynamic execution that would never
// terminate by itself; only Cancel can stop it.
func TestRunDynamicConcurrentCancel(t *testing.T) {
	p := &perpetualProblem{}
	mq := multiqueue.NewConcurrent(4, 1024, 11)
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := RunDynamicConcurrent(p, []sched.Item{{Task: 0, Priority: 0}}, mq, Options{Workers: 2, Cancel: cancel})
		done <- err
	}()
	for p.expanded.Load() < 100 {
		time.Sleep(100 * time.Microsecond)
	}
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("got %v, want ErrCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dynamic execution did not abort after cancellation")
	}
}

// TestCancelNilChannelIsInert: a nil Cancel channel must not change behavior
// — the executions complete exactly as before the option existed.
func TestCancelNilChannelIsInert(t *testing.T) {
	p := randomDepthProblem(300, 900, rng.New(5))
	labels := RandomLabels(p.NumTasks(), rng.New(6))
	mq := multiqueue.NewConcurrent(8, p.NumTasks(), 9)
	res, err := RunConcurrent(p, labels, mq, Reinsert, Options{Workers: 4, Cancel: nil})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != int64(p.NumTasks()) {
		t.Fatalf("processed %d of %d tasks", res.Processed, p.NumTasks())
	}
}
