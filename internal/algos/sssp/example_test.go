package sssp_test

import (
	"fmt"

	"relaxsched/internal/algos/sssp"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
)

// Example computes shortest paths on a grid road network with random
// segment lengths. A relaxed queue hands out vertices out of distance
// order, which costs stale pops but never changes the final distances.
func Example() {
	const rows, cols = 60, 60
	g := graph.Grid(rows, cols)
	weights, err := graph.RandomWeights(g, 100, 5)
	if err != nil {
		panic(err)
	}
	exact, err := sssp.Dijkstra(g, weights, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("corner-to-corner distance %d, verified %t\n", exact[rows*cols-1], sssp.Verify(g, weights, 0, exact) == nil)

	relaxed, st, err := sssp.RunRelaxed(g, weights, 0, multiqueue.NewSequential(16, g.NumVertices(), rng.New(5)))
	fmt.Printf("relaxed (k=16): identical %t, %d pops, %d stale\n",
		err == nil && sssp.Equal(relaxed, exact), st.Pops, st.StalePops)

	mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*2, g.NumVertices(), 5)
	parallel, _, err := sssp.RunConcurrent(g, weights, 0, mq, 2)
	fmt.Printf("concurrent (2 workers): identical %t\n", err == nil && sssp.Equal(parallel, exact))
	// Output:
	// corner-to-corner distance 2882, verified true
	// relaxed (k=16): identical true, 4977 pops, 1256 stale
	// concurrent (2 workers): identical true
}
