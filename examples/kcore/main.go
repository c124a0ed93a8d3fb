// Example: k-core decomposition of a power-law graph with a relaxed
// priority scheduler.
//
// K-core peeling is a dynamic-priority workload: a vertex's removal priority
// is its *current* degree, which drops as neighbors are peeled away. The
// example computes core numbers three ways — the sequential bucket-peeling
// oracle, a relaxed sequential-model MultiQueue, and the concurrent dynamic
// engine — and checks that all three produce the identical decomposition:
// the relaxed executions use the order-independent h-index fixpoint, so
// relaxation can only add work (stale pops), never wrong core numbers.
//
// Power-law graphs are the natural showcase: most vertices sit in shallow
// cores and peel away quickly, while the high-degree hubs form a small dense
// center with a much larger core number (the graph's degeneracy).
package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"relaxsched/internal/algos/kcore"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kcore example:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		vertices  = 200_000
		avgDegree = 10
		exponent  = 2.5
		seed      = 7
	)
	fmt.Printf("building power-law graph (%d vertices, avg degree %d, exponent %.1f)...\n",
		vertices, avgDegree, exponent)
	g, err := graph.PowerLaw(vertices, avgDegree, exponent, runtime.GOMAXPROCS(0), rng.New(seed))
	if err != nil {
		return err
	}
	fmt.Printf("graph: %s, max degree %d\n", g, g.MaxDegree())

	start := time.Now()
	exact := kcore.Sequential(g)
	fmt.Printf("sequential bucket peeling:  %v\n", time.Since(start))

	start = time.Now()
	relaxed, st, err := kcore.RunRelaxed(g, multiqueue.NewSequential(16, g.NumVertices(), rng.New(seed)))
	if err != nil {
		return err
	}
	fmt.Printf("relaxed queue (sequential): %v, %d pops (%d stale)\n", time.Since(start), st.Pops, st.StalePops)

	workers := runtime.GOMAXPROCS(0)
	mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*workers, g.NumVertices(), seed)
	start = time.Now()
	parallel, pst, err := kcore.RunConcurrent(g, mq, core.Options{Workers: workers})
	if err != nil {
		return err
	}
	fmt.Printf("relaxed queue (%d workers): %v, %d pops (%d stale)\n", workers, time.Since(start), pst.Pops, pst.StalePops)

	if !kcore.Equal(relaxed, exact) || !kcore.Equal(parallel, exact) {
		return fmt.Errorf("relaxed core numbers differ from the peeling oracle")
	}
	fmt.Println("all executions computed the identical k-core decomposition ✔")

	// A tiny profile of the decomposition: how many vertices sit at each of
	// the lowest core levels, and the dense center at the top.
	degeneracy := kcore.Degeneracy(exact)
	counts := make([]int, degeneracy+1)
	for _, c := range exact {
		counts[c]++
	}
	fmt.Printf("degeneracy (max core number): %d\n", degeneracy)
	for k := 0; k <= int(degeneracy) && k <= 3; k++ {
		fmt.Printf("  core %d: %d vertices\n", k, counts[k])
	}
	if degeneracy > 3 {
		fmt.Printf("  ...\n  core %d (densest): %d vertices\n", degeneracy, counts[degeneracy])
	}
	return nil
}
