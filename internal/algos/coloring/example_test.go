package coloring_test

import (
	"fmt"

	"relaxsched/internal/algos/coloring"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
)

// Example colors a power-law (R-MAT) graph greedily. The coloring depends
// on the vertex order; the framework keeps that order under a relaxed
// sequential-model MultiQueue and under two concurrent workers, so both
// return exactly the sequential coloring.
func Example() {
	r := rng.New(7)
	g, err := graph.RMAT(12, 8, 0.57, 0.19, 0.19, r)
	if err != nil {
		panic(err)
	}
	labels := core.RandomLabels(g.NumVertices(), r)
	reference := coloring.Sequential(g, labels)
	fmt.Printf("%s, max degree %d\n", g, g.MaxDegree())
	fmt.Printf("%d colors, proper %t\n", coloring.NumColors(reference), coloring.Verify(g, reference) == nil)

	relaxed, res, err := coloring.RunRelaxed(g, labels, multiqueue.NewSequential(16, g.NumVertices(), r.Fork()))
	fmt.Printf("relaxed (k=16): identical %t, extra iterations %d\n",
		err == nil && coloring.Equal(relaxed, reference), res.ExtraIterations())

	mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*2, g.NumVertices(), 7)
	parallel, _, err := coloring.RunConcurrent(g, labels, mq, core.Reinsert, core.Options{Workers: 2})
	fmt.Printf("concurrent (2 workers): identical %t\n", err == nil && coloring.Equal(parallel, reference))
	// Output:
	// graph{n=4096 m=26701 avgdeg=13.04}, max degree 932
	// 35 colors, proper true
	// relaxed (k=16): identical true, extra iterations 380
	// concurrent (2 workers): identical true
}
