// Example: greedy maximal matching for a bipartite assignment workload.
//
// A classic use of maximal matching is pairing requests with resources
// (tasks with machines, riders with drivers). This example builds a random
// bipartite "requests x servers" compatibility graph, computes the greedy
// maximal matching deterministically in parallel with the relaxed framework,
// and cross-checks it against both the sequential greedy and the paper's
// line-graph MIS reduction.
package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"relaxsched/internal/algos/matching"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "matching example:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		requests = 20_000
		servers  = 20_000
		pairs    = 200_000
		seed     = 99
	)
	r := rng.New(seed)

	fmt.Printf("building compatibility graph: %d requests x %d servers, %d compatible pairs...\n",
		requests, servers, pairs)
	g, err := graph.RandomBipartite(requests, servers, pairs, r)
	if err != nil {
		return err
	}
	numEdges := int(g.NumEdges())
	labels := core.RandomLabels(numEdges, r)

	start := time.Now()
	reference := matching.Sequential(g, labels)
	fmt.Printf("sequential greedy matching: %v, %d pairs matched\n", time.Since(start), matching.Size(reference))

	workers := runtime.GOMAXPROCS(0)
	mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*workers, numEdges, seed)
	start = time.Now()
	matched, res, err := matching.RunConcurrent(g, labels, mq, core.Reinsert, core.Options{Workers: workers})
	if err != nil {
		return err
	}
	fmt.Printf("concurrent matching (%d workers): %v, %d pairs matched, extra iterations %d\n",
		workers, time.Since(start), matching.Size(matched), res.ExtraIterations())

	if !matching.Equal(matched, reference) {
		return fmt.Errorf("parallel matching differs from the sequential greedy matching")
	}
	if err := matching.Verify(g, matched); err != nil {
		return err
	}

	// Cross-check with the paper's reduction: matching = MIS on the line
	// graph. (The line graph is materialized, so keep this to modest sizes.)
	small, err := graph.RandomBipartite(300, 300, 2000, rng.New(seed+1))
	if err != nil {
		return err
	}
	smallLabels := core.RandomLabels(int(small.NumEdges()), rng.New(seed+2))
	if !matching.Equal(matching.Sequential(small, smallLabels), matching.ViaLineGraph(small, smallLabels)) {
		return fmt.Errorf("line-graph MIS reduction disagrees with direct greedy matching")
	}
	fmt.Println("matching is valid, maximal, deterministic, and agrees with the line-graph MIS reduction ✔")

	matchedRequests := matching.Size(matched)
	fmt.Printf("assignment coverage: %.1f%% of requests served\n", 100*float64(matchedRequests)/float64(requests))
	return nil
}
