package matching_test

import (
	"fmt"

	"relaxsched/internal/algos/matching"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
)

// Example computes the greedy maximal matching over random edge labels,
// cross-checks it against the paper's reduction (greedy matching is greedy
// MIS on the line graph), and runs it on two concurrent workers.
func Example() {
	r := rng.New(99)
	g, err := graph.GNM(1000, 4000, r)
	if err != nil {
		panic(err)
	}
	labels := core.RandomLabels(int(g.NumEdges()), r)
	reference := matching.Sequential(g, labels)
	fmt.Printf("%d pairs matched, maximal %t\n", matching.Size(reference), matching.Verify(g, reference) == nil)
	fmt.Printf("line-graph MIS: identical %t\n", matching.Equal(matching.ViaLineGraph(g, labels), reference))

	mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*2, int(g.NumEdges()), 99)
	parallel, _, err := matching.RunConcurrent(g, labels, mq, core.Reinsert, core.Options{Workers: 2})
	fmt.Printf("concurrent (2 workers): identical %t\n", err == nil && matching.Equal(parallel, reference))
	// Output:
	// 450 pairs matched, maximal true
	// line-graph MIS: identical true
	// concurrent (2 workers): identical true
}
