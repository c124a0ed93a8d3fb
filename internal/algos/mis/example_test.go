package mis_test

import (
	"fmt"

	"relaxsched/internal/algos/mis"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
)

// Example is the quickstart. Greedy MIS is computed by the sequential
// oracle, by the relaxed framework under a sequential-model MultiQueue and
// by two concurrent workers: all three return exactly the greedy MIS of the
// labels (determinism), at the cost of a few extra iterations (Theorem 2).
func Example() {
	r := rng.New(2018)
	g, err := graph.GNM(5000, 50000, r)
	if err != nil {
		panic(err)
	}
	labels := core.RandomLabels(g.NumVertices(), r)
	reference := mis.Sequential(g, labels)
	size := 0
	for _, in := range reference {
		if in {
			size++
		}
	}
	fmt.Printf("set size %d, verified %t\n", size, mis.Verify(g, reference) == nil)

	relaxed, res, err := mis.RunRelaxed(g, labels, multiqueue.NewSequential(16, g.NumVertices(), r.Fork()))
	fmt.Printf("relaxed (k=16): identical %t, extra iterations %d\n",
		err == nil && mis.Equal(relaxed, reference), res.ExtraIterations())

	mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*2, g.NumVertices(), 2018)
	parallel, _, err := mis.RunConcurrent(g, labels, mq, core.Reinsert, core.Options{Workers: 2})
	fmt.Printf("concurrent (2 workers): identical %t\n", err == nil && mis.Equal(parallel, reference))
	// Output:
	// set size 773, verified true
	// relaxed (k=16): identical true, extra iterations 12
	// concurrent (2 workers): identical true
}
