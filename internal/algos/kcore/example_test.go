package kcore_test

import (
	"fmt"

	"relaxsched/internal/algos/kcore"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
)

// Example decomposes a power-law graph into k-cores. A vertex's peeling
// priority is its current degree, which drops as neighbors peel away; the
// relaxed runs use an order-independent fixpoint, so relaxation only adds
// re-evaluations and never changes a core number.
func Example() {
	g, err := graph.PowerLaw(5000, 10, 2.5, 2, rng.New(7))
	if err != nil {
		panic(err)
	}
	exact := kcore.Sequential(g)
	fmt.Printf("%s, max degree %d\n", g, g.MaxDegree())
	fmt.Printf("degeneracy %d, verified %t\n", kcore.Degeneracy(exact), kcore.Verify(g, exact) == nil)

	relaxed, st, err := kcore.RunRelaxed(g, multiqueue.NewSequential(16, g.NumVertices(), rng.New(7)))
	fmt.Printf("relaxed (k=16): identical %t, %d re-evaluations\n", err == nil && kcore.Equal(relaxed, exact), st.Emitted)

	mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*2, g.NumVertices(), 7)
	parallel, _, err := kcore.RunConcurrent(g, mq, core.Options{Workers: 2})
	fmt.Printf("concurrent (2 workers): identical %t\n", err == nil && kcore.Equal(parallel, exact))
	// Output:
	// graph{n=5000 m=24234 avgdeg=9.69}, max degree 802
	// degeneracy 12, verified true
	// relaxed (k=16): identical true, 1613 re-evaluations
	// concurrent (2 workers): identical true
}
