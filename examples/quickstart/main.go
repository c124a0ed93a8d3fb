// Quickstart: compute a greedy Maximal Independent Set with the relaxed
// scheduling framework and confirm that, despite the relaxed scheduler
// returning tasks out of order, the output is exactly the sequential greedy
// MIS (determinism) and the wasted work is tiny (Theorem 2).
package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"relaxsched/internal/algos/mis"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		vertices = 50_000
		edges    = 500_000
		seed     = 2018 // the paper's year, for luck
	)
	r := rng.New(seed)

	fmt.Printf("generating G(n,m) random graph with %d vertices and %d edges...\n", vertices, edges)
	g, err := graph.GNM(vertices, edges, r)
	if err != nil {
		return err
	}

	// A uniformly random priority permutation: the framework guarantees the
	// output is the greedy MIS with respect to exactly this order.
	labels := core.RandomLabels(g.NumVertices(), r)

	// 1. Sequential greedy baseline.
	start := time.Now()
	reference := mis.Sequential(g, labels)
	seqTime := time.Since(start)
	fmt.Printf("sequential greedy MIS:   %8v  (size %d)\n", seqTime, count(reference))

	// 2. Relaxed framework, sequential model (Algorithm 4 with a MultiQueue).
	start = time.Now()
	relaxedSet, res, err := mis.RunRelaxed(g, labels, multiqueue.NewSequential(16, vertices, r.Fork()))
	if err != nil {
		return err
	}
	fmt.Printf("relaxed framework (k=16): %8v  (size %d, extra iterations %d)\n",
		time.Since(start), count(relaxedSet), res.ExtraIterations())

	// 3. Concurrent execution on all available cores.
	workers := runtime.GOMAXPROCS(0)
	mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*workers, vertices, seed)
	start = time.Now()
	parallelSet, cres, err := mis.RunConcurrent(g, labels, mq, core.Reinsert, core.Options{Workers: workers})
	if err != nil {
		return err
	}
	parTime := time.Since(start)
	fmt.Printf("concurrent (%d workers):  %8v  (size %d, extra iterations %d, speedup %.2fx)\n",
		workers, parTime, count(parallelSet), cres.ExtraIterations(), seqTime.Seconds()/parTime.Seconds())

	// Determinism and correctness checks.
	if !mis.Equal(relaxedSet, reference) || !mis.Equal(parallelSet, reference) {
		return fmt.Errorf("outputs differ from the sequential greedy MIS — determinism violated")
	}
	if err := mis.Verify(g, reference); err != nil {
		return err
	}
	fmt.Println("all executions produced the identical, verified maximal independent set ✔")
	return nil
}

func count(set []bool) int {
	n := 0
	for _, in := range set {
		if in {
			n++
		}
	}
	return n
}
