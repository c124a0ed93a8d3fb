package pagerank_test

import (
	"fmt"

	"relaxsched/internal/algos/pagerank"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
)

// Example runs residual-push PageRank on a power-law graph. A vertex's
// priority is its pending residual, which rises as neighbors push into it.
// Relaxation only costs extra pushes: every run stays within the L1
// tolerance of the power-iteration oracle, which Verify checks.
func Example() {
	g, err := graph.PowerLaw(1000, 10, 2.5, 2, rng.New(7))
	if err != nil {
		panic(err)
	}
	opts := pagerank.Options{Damping: pagerank.DefaultDamping, Tolerance: 1e-6}

	relaxed, _, err := pagerank.RunRelaxed(g, multiqueue.NewSequential(16, g.NumVertices(), rng.New(7)), opts)
	fmt.Printf("relaxed (k=16): within tolerance %t\n", err == nil && pagerank.Verify(g, relaxed, opts) == nil)
	top := 0
	for v, rank := range relaxed {
		if rank > relaxed[top] {
			top = v
		}
	}
	fmt.Printf("top vertex %d, degree %d\n", top, g.Degree(top))

	mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*2, g.NumVertices(), 7)
	parallel, _, err := pagerank.RunConcurrent(g, mq, core.Options{Workers: 2}, opts)
	fmt.Printf("concurrent (2 workers): within tolerance %t\n", err == nil && pagerank.Verify(g, parallel, opts) == nil)
	// Output:
	// relaxed (k=16): within tolerance true
	// top vertex 0, degree 252
	// concurrent (2 workers): within tolerance true
}
