package core

import (
	"testing"

	"relaxsched/internal/sched/multiqueue"
	"relaxsched/internal/sched/topk"

	"relaxsched/internal/rng"
)

func TestRunSequentialCountsDeadSkips(t *testing.T) {
	// On a chain processed in order, the killer problem skips every odd
	// vertex; RunSequential must account for them as dead skips with zero
	// extra iterations.
	const n = 12
	p := newKillerProblem(n, chainEdges(n))
	res, err := RunSequential(p, IdentityLabels(n))
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != n/2 || res.DeadSkips != n/2 {
		t.Fatalf("processed=%d deadSkips=%d, want %d each", res.Processed, res.DeadSkips, n/2)
	}
	if res.Iterations != n {
		t.Fatalf("iterations=%d, want %d", res.Iterations, n)
	}
	if res.ExtraIterations() != 0 {
		t.Fatalf("extra iterations = %d, want 0", res.ExtraIterations())
	}
}

func TestExtraIterationsArithmetic(t *testing.T) {
	r := Result{Iterations: 120, Processed: 90, DeadSkips: 10, FailedDeletes: 20}
	if got := r.ExtraIterations(); got != 20 {
		t.Fatalf("ExtraIterations = %d, want 20", got)
	}
}

func TestRunRelaxedEmptyProblem(t *testing.T) {
	p := newDepthProblem(0, nil)
	res, err := RunRelaxed(p, nil, topk.New(4, 0, rng.New(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 || res.Processed != 0 {
		t.Fatalf("empty problem produced work: %+v", res)
	}
	cres, err := RunConcurrent(p, nil, multiqueue.NewConcurrent(2, 0, 1), Reinsert, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cres.Processed != 0 {
		t.Fatalf("empty concurrent problem produced work: %+v", cres)
	}
}

func TestRunSequentialEmptyProblem(t *testing.T) {
	p := newDepthProblem(0, nil)
	res, err := RunSequential(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 {
		t.Fatalf("empty sequential run produced work: %+v", res)
	}
}
