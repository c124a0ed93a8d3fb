// Package bench is the concurrent benchmark harness behind the paper's
// Figure 2: it measures the wall-clock time of workloads from the
// internal/workload registry over G(n, p) random graphs (and power-law and
// grid instances), comparing
//
//   - the relaxed framework on a concurrent MultiQueue (the paper's
//     contribution),
//   - the exact framework on a fetch-and-add FIFO with the wait-on-
//     predecessor backoff (the paper's exact-scheduler baseline),
//   - a coarse-locked k-bounded scheduler (the sched.Batcher path), and
//   - the optimized sequential baseline (the speedup denominator),
//
// across a sweep of worker counts and executor batch sizes. A Figure 2
// panel is that sweep at one batch size. The paper runs its three classes
// at 10^8–10^10 edges on a 4-socket Xeon; this harness keeps the same class
// shapes (sparse, small dense, large dense — i.e. the same average-degree
// regimes) at sizes that fit a single development machine, which preserves
// the qualitative comparison the figure makes.
//
// The harness is workload-agnostic: every algorithm — static-framework (mis,
// coloring, matching) and dynamic-priority (sssp, kcore, pagerank) alike —
// is bound through its registry descriptor, so the sweep and the JSON
// trajectory gain a new workload the moment it registers itself.
package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/stats"
	"relaxsched/internal/workload"
)

// Graph models selectable per class.
const (
	// ModelGNP is the Erdős–Rényi G(n, p) model of Figure 2 (the default).
	ModelGNP = "gnp"
	// ModelPowerLaw is the Chung–Lu power-law model: heavy-tailed degrees
	// with a few very high-degree hubs, the degree profile of web/social
	// graphs and a harsher dependency structure for MIS and coloring.
	ModelPowerLaw = "powerlaw"
	// ModelGrid is a square grid — the road-network-like topology that is
	// the classic Δ-stepping benchmark for the shortest-path workload: long
	// shortest-path chains instead of the logarithmic diameter of G(n, p).
	ModelGrid = "grid"
)

// Class describes one of Figure 2's graph classes.
type Class struct {
	// Name identifies the class ("sparse", "smalldense", "largedense", ...).
	Name string
	// Vertices and Edges give the scaled-down instance size. The ratio
	// Edges/Vertices (the average degree) is what distinguishes the classes.
	Vertices int
	Edges    int64
	// Model selects the generator: ModelGNP (default when empty) or
	// ModelPowerLaw.
	Model string
	// Exponent is the power-law exponent for ModelPowerLaw (default 2.5).
	Exponent float64
}

// DefaultClasses returns scaled-down versions of the paper's three classes.
// The paper's sparse class has average degree ~20, the small dense class
// ~2000, and the large dense class ~2000 with 10x more vertices; the scaled
// classes keep the sparse/dense distinction (node-dequeue-bound versus
// edge-traversal-bound) while remaining runnable on a laptop.
func DefaultClasses() []Class {
	return []Class{
		{Name: "sparse", Vertices: 200_000, Edges: 2_000_000},
		{Name: "smalldense", Vertices: 20_000, Edges: 2_000_000},
		{Name: "largedense", Vertices: 60_000, Edges: 6_000_000},
	}
}

// SweepClasses returns the classes tracked by the worker-scaling sweep
// behind BENCH_concurrent.json: the 100k-vertex G(n,p) instance the sweep
// has always measured, a million-vertex G(n,p) instance (the large-graph
// throughput track), a power-law instance exercising hub-heavy dependency
// structure, and a 500×500 grid — the dynamic-workload track, whose long
// shortest-path chains are what Δ-stepping bucketing trades against.
func SweepClasses() []Class {
	return []Class{
		{Name: "hundredk", Vertices: 100_000, Edges: 1_000_000},
		{Name: "million", Vertices: 1_000_000, Edges: 10_000_000},
		{Name: "powerlaw", Vertices: 200_000, Edges: 2_000_000, Model: ModelPowerLaw, Exponent: 2.5},
		{Name: "grid", Vertices: 250_000, Edges: 499_000, Model: ModelGrid},
	}
}

// ClassByName returns the named class from DefaultClasses or SweepClasses.
func ClassByName(name string) (Class, error) {
	for _, c := range append(DefaultClasses(), SweepClasses()...) {
		if c.Name == name {
			return c, nil
		}
	}
	return Class{}, fmt.Errorf("bench: unknown graph class %q", name)
}

// Scheduler names used in sweep points.
const (
	SchedulerRelaxed = "relaxed-multiqueue"
	SchedulerExact   = "exact-faa"
	// SchedulerLockedKBounded names the coarse-locked deterministic
	// k-bounded scheduler. It exercises the sched.Batcher path: one lock
	// acquisition per batch with native batch operations inside.
	SchedulerLockedKBounded = "locked-kbounded"
)

// DefaultThreadSweep returns 1, 2, 4, ... up to GOMAXPROCS.
func DefaultThreadSweep() []int {
	maxProcs := runtime.GOMAXPROCS(0)
	threads := []int{1}
	for t := 2; t <= maxProcs; t *= 2 {
		threads = append(threads, t)
	}
	if last := threads[len(threads)-1]; last != maxProcs {
		threads = append(threads, maxProcs)
	}
	return threads
}

// bind generates the class's input graph, binds the workload through the
// registry, and times the sequential baseline, whose last output is the
// reference every verified parallel run is matched against.
func bind(class Class, alg string, trials int, seed uint64, p workload.Params) (workload.Instance, stats.Summary, workload.Output, error) {
	r := rng.New(seed ^ 0xbe9cbe9cbe9cbe9c)
	g, err := generateGraph(class, r)
	if err != nil {
		return nil, stats.Summary{}, nil, err
	}
	d, err := workload.Lookup(alg)
	if err != nil {
		return nil, stats.Summary{}, nil, fmt.Errorf("bench: unknown algorithm %q", alg)
	}
	inst, err := d.New(g, p)
	if err != nil {
		return nil, stats.Summary{}, nil, err
	}

	var seqTimes []float64
	var reference workload.Output
	for trial := 0; trial < trials; trial++ {
		start := time.Now()
		reference = inst.RunSequential()
		seqTimes = append(seqTimes, time.Since(start).Seconds())
	}
	return inst, stats.Summarize(seqTimes), reference, nil
}

// generateGraph builds a class's input graph. The paper generates each
// input graph with all available threads regardless of the thread count
// under test; the parallel generators mirror that and emit CSR shards
// directly.
func generateGraph(class Class, r *rng.Rand) (*graph.Graph, error) {
	n := class.Vertices
	var g *graph.Graph
	var err error
	switch class.Model {
	case "", ModelGNP:
		p := float64(2*class.Edges) / (float64(n) * float64(n-1))
		g, err = graph.ParallelGNP(n, p, runtime.GOMAXPROCS(0), r)
	case ModelPowerLaw:
		exponent := class.Exponent
		if exponent == 0 {
			exponent = 2.5
		}
		avgDeg := 2 * float64(class.Edges) / float64(n)
		g, err = graph.PowerLaw(n, avgDeg, exponent, runtime.GOMAXPROCS(0), r)
	case ModelGrid:
		// Factor n as rows*cols with the most square shape available, so the
		// built graph has exactly the class's declared vertex count (falling
		// back to a 1×n path for primes).
		rows := int(math.Sqrt(float64(n)))
		for rows > 1 && n%rows != 0 {
			rows--
		}
		if rows < 1 {
			rows = 1
		}
		g = graph.Grid(rows, n/rows)
	default:
		err = fmt.Errorf("unknown graph model %q", class.Model)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: generating %s graph: %w", class.Name, err)
	}
	return g, nil
}
