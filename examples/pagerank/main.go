// Example: residual-push PageRank on a power-law graph under relaxed
// priority schedulers.
//
// Push-based PageRank is a dynamic-priority workload: the natural processing
// priority of a vertex is its pending residual mass, which rises at runtime
// as neighbors push into it. The example computes ranks three ways — the
// power-iteration oracle, a relaxed sequential-model MultiQueue push, and
// the concurrent dynamic engine — and checks that every execution lands
// within the tolerance budget of the oracle: relaxation can only cost extra
// pushes (reported as stale pops + re-pushes), never a wrong answer beyond
// the tolerance.
//
// Power-law graphs are the interesting case: the high-degree hubs
// concentrate residual mass and sit at the top of the scheduler, so the
// residual order the schedulers approximate actually matters.
package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"relaxsched/internal/algos/pagerank"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pagerank example:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		vertices  = 100_000
		avgDegree = 10
		exponent  = 2.5
		seed      = 7
	)
	opts := pagerank.Options{Damping: pagerank.DefaultDamping, Tolerance: 1e-8}

	fmt.Printf("building power-law graph (%d vertices, avg degree %d, exponent %.1f)...\n",
		vertices, avgDegree, exponent)
	g, err := graph.PowerLaw(vertices, avgDegree, exponent, runtime.GOMAXPROCS(0), rng.New(seed))
	if err != nil {
		return err
	}
	fmt.Printf("graph: %s, max degree %d\n", g, g.MaxDegree())

	start := time.Now()
	oracle, err := pagerank.PowerIteration(g, opts)
	if err != nil {
		return err
	}
	fmt.Printf("power iteration (oracle):   %v\n", time.Since(start))

	start = time.Now()
	relaxed, st, err := pagerank.RunRelaxed(g, multiqueue.NewSequential(16, g.NumVertices(), rng.New(seed)), opts)
	if err != nil {
		return err
	}
	fmt.Printf("relaxed push (sequential):  %v, %d pushes (%d wasted: stale + re-push)\n",
		time.Since(start), st.Pushes, st.Wasted())

	workers := runtime.GOMAXPROCS(0)
	mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*workers, g.NumVertices(), seed)
	start = time.Now()
	parallel, pst, err := pagerank.RunConcurrent(g, mq, core.Options{Workers: workers}, opts)
	if err != nil {
		return err
	}
	fmt.Printf("relaxed push (%d workers):  %v, %d pushes (%d wasted)\n",
		workers, time.Since(start), pst.Pushes, pst.Wasted())

	for name, ranks := range map[string][]float64{"sequential": relaxed, "concurrent": parallel} {
		if d := pagerank.L1(ranks, oracle); d > 2*opts.Tolerance {
			return fmt.Errorf("%s push drifted %v from the oracle (budget %v)", name, d, 2*opts.Tolerance)
		}
	}
	fmt.Printf("all executions within the %.0e L1 tolerance of the oracle ✔\n", opts.Tolerance)
	fmt.Printf("total rank mass: %.9f (mass below 1 is the undrained residual budget)\n", pagerank.Sum(parallel))

	// The hubs dominate the rank mass — show the top five.
	order := make([]int, g.NumVertices())
	for v := range order {
		order[v] = v
	}
	sort.Slice(order, func(i, j int) bool { return oracle[order[i]] > oracle[order[j]] })
	fmt.Println("top vertices by rank:")
	for _, v := range order[:5] {
		fmt.Printf("  vertex %6d: rank %.6f, degree %d\n", v, oracle[v], g.Degree(v))
	}
	return nil
}
