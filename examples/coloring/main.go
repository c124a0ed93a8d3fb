// Example: deterministic parallel greedy vertex coloring of a power-law
// (social-network-style) graph.
//
// Register allocation, exam timetabling and Chordal-style scheduling problems
// all reduce to coloring; the greedy heuristic needs a fixed vertex order to
// give reproducible colorings, which is exactly what the framework preserves
// while still running on all cores.
package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"relaxsched/internal/algos/coloring"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "coloring example:", err)
		os.Exit(1)
	}
}

func run() error {
	const seed = 7
	r := rng.New(seed)

	// An R-MAT graph has the skewed degree distribution of social networks:
	// a few hubs with very high degree and a long tail of low-degree users.
	fmt.Println("generating R-MAT power-law graph (2^15 vertices, ~8 edges/vertex)...")
	g, err := graph.RMAT(15, 8, 0.57, 0.19, 0.19, r)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %s, max degree %d\n", g, g.MaxDegree())

	labels := core.RandomLabels(g.NumVertices(), r)

	start := time.Now()
	reference := coloring.Sequential(g, labels)
	fmt.Printf("sequential greedy coloring: %v, %d colors\n", time.Since(start), coloring.NumColors(reference))

	workers := runtime.GOMAXPROCS(0)
	mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*workers, g.NumVertices(), seed)
	start = time.Now()
	colors, res, err := coloring.RunConcurrent(g, labels, mq, core.Reinsert, core.Options{Workers: workers})
	if err != nil {
		return err
	}
	fmt.Printf("concurrent coloring (%d workers): %v, %d colors, %d failed deletes\n",
		workers, time.Since(start), coloring.NumColors(colors), res.FailedDeletes)

	if !coloring.Equal(colors, reference) {
		return fmt.Errorf("parallel coloring differs from the sequential greedy coloring")
	}
	if err := coloring.Verify(g, colors); err != nil {
		return err
	}
	fmt.Println("parallel coloring is proper and identical to the sequential one ✔")

	// Color histogram: how many vertices got each of the first few colors.
	hist := make(map[int32]int)
	for _, c := range colors {
		hist[c]++
	}
	fmt.Println("color usage (first 8 colors):")
	for c := int32(0); c < 8 && int(c) < coloring.NumColors(colors); c++ {
		fmt.Printf("  color %d: %d vertices\n", c, hist[c])
	}
	return nil
}
