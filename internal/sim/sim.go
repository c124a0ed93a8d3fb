// Package sim is the sequential simulation harness behind the paper's
// synthetic experiments: it measures the number of extra scheduler iterations
// ("failed deletes") that relaxation causes when executing an iterative
// algorithm through the framework, exactly the quantity reported in Table 1
// and bounded by Theorems 1 and 2.
//
// A simulation cell fixes an algorithm, an input size (|V|, |E|), a scheduler
// family, a relaxation factor k and a number of trials; each trial draws a
// fresh random input and priority permutation, runs the relaxed framework,
// checks its output against the sequential algorithm's, and records the
// extra iterations. Sweeps over k, |V| and |E| reproduce Table 1 (MIS with a
// MultiQueue) and validate the theorems' scaling claims for the other
// algorithms.
//
// Graph algorithms are the static workloads of the internal/workload
// registry (mis, matching, coloring, and any later static registration);
// list contraction and Knuth shuffle take no graph and run as the two cases
// local to this package.
package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"relaxsched/internal/algos/listcontract"
	"relaxsched/internal/algos/shuffle"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/kbounded"
	"relaxsched/internal/sched/multiqueue"
	"relaxsched/internal/sched/spraylist"
	"relaxsched/internal/sched/topk"
	"relaxsched/internal/stats"
	"relaxsched/internal/workload"
)

// The graph-free algorithms, which are not registry workloads.
const (
	algListContract = "listcontract"
	algShuffle      = "shuffle"
)

// Scheduler selects which relaxed scheduler family a simulation cell uses.
type Scheduler string

// Supported scheduler families.
const (
	SchedMultiQueue Scheduler = "multiqueue"
	SchedTopK       Scheduler = "topk"
	SchedSprayList  Scheduler = "spraylist"
	SchedKBounded   Scheduler = "kbounded"
)

// Schedulers lists the supported scheduler families in a stable order.
func Schedulers() []Scheduler {
	return []Scheduler{SchedMultiQueue, SchedTopK, SchedSprayList, SchedKBounded}
}

// Config describes one simulation cell.
type Config struct {
	// Algorithm is a static workload name from the internal/workload
	// registry, or listcontract or shuffle (default "mis").
	Algorithm string
	// Scheduler family to use (default SchedMultiQueue).
	Scheduler Scheduler
	// Vertices is |V| of the random input graph (or the number of list nodes
	// / shuffle iterations for the non-graph algorithms).
	Vertices int
	// Edges is |E| of the random input graph. It is ignored by the list
	// contraction and shuffle workloads, whose dependency structure is
	// inherently sparse.
	Edges int64
	// K is the relaxation factor (at least 1): the number of MultiQueue
	// sub-queues, the top-k width, the spray parameter, or the k-bounded
	// window.
	K int
	// Trials is the number of independent repetitions (fresh input and
	// permutation each time), at least 1.
	Trials int
	// Seed makes the cell reproducible.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Algorithm == "" {
		c.Algorithm = "mis"
	}
	if c.Scheduler == "" {
		c.Scheduler = SchedMultiQueue
	}
	return c
}

// descriptor resolves a graph algorithm through the workload registry; it
// returns nil for the two graph-free algorithms local to this package.
func descriptor(alg string) (*workload.Descriptor, error) {
	if alg == algListContract || alg == algShuffle {
		return nil, nil
	}
	d, err := workload.Lookup(alg)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if d.Kind != workload.Static {
		return nil, fmt.Errorf("sim: %q is a dynamic workload; the simulations count the static framework's extra iterations", alg)
	}
	return d, nil
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	c = c.withDefaults()
	d, err := descriptor(c.Algorithm)
	if err != nil {
		return err
	}
	switch c.Scheduler {
	case SchedMultiQueue, SchedTopK, SchedSprayList, SchedKBounded:
	default:
		return fmt.Errorf("sim: unknown scheduler %q", c.Scheduler)
	}
	if c.Vertices <= 0 {
		return fmt.Errorf("sim: vertex count must be positive, got %d", c.Vertices)
	}
	maxEdges := int64(c.Vertices) * int64(c.Vertices-1) / 2
	if d != nil && (c.Edges < 0 || c.Edges > maxEdges) {
		return fmt.Errorf("sim: edge count %d invalid for %d vertices", c.Edges, c.Vertices)
	}
	if c.K < 1 {
		return fmt.Errorf("sim: relaxation factor must be at least 1, got %d", c.K)
	}
	if c.Trials < 1 {
		return fmt.Errorf("sim: trial count must be at least 1, got %d", c.Trials)
	}
	return nil
}

// CellResult is the outcome of one simulation cell.
type CellResult struct {
	Config Config
	// ExtraIterations summarizes iterations beyond the unavoidable one per
	// task across trials — the quantity in Table 1.
	ExtraIterations stats.Summary
	// Tasks is the number of framework tasks per trial (|V| for vertex
	// algorithms, |E| for matching).
	Tasks int
}

// schedulerFactory builds the sequential-model scheduler for a cell.
func schedulerFactory(kind Scheduler, k int, r *rng.Rand) sched.Factory {
	switch kind {
	case SchedTopK:
		return topk.Factory(k, r)
	case SchedSprayList:
		return spraylist.Factory(k, r)
	case SchedKBounded:
		return kbounded.Factory(k)
	default:
		return multiqueue.SequentialFactory(k, r)
	}
}

// RunCell runs one simulation cell and returns its aggregated result. Every
// trial's output is checked against the sequential algorithm's on the same
// input; a mismatch fails the cell.
func RunCell(cfg Config) (CellResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return CellResult{}, err
	}
	d, _ := descriptor(cfg.Algorithm) // Validate resolved it without error
	r := rng.New(cfg.Seed ^ 0x5eed5eed5eed5eed)
	factory := schedulerFactory(cfg.Scheduler, cfg.K, r.Fork())

	extras := make([]float64, 0, cfg.Trials)
	tasks := 0
	for trial := 0; trial < cfg.Trials; trial++ {
		extra, numTasks, err := runTrial(cfg, d, r, factory)
		if err != nil {
			return CellResult{}, fmt.Errorf("sim: %s trial %d: %w", cfg.Algorithm, trial, err)
		}
		tasks = numTasks
		extras = append(extras, float64(extra))
	}
	return CellResult{
		Config:          cfg,
		ExtraIterations: stats.Summarize(extras),
		Tasks:           tasks,
	}, nil
}

// errMismatch reports a relaxed run whose output differs from the
// sequential algorithm's.
var errMismatch = errors.New("relaxed output differs from the sequential output")

// runTrial draws a fresh input and permutation, executes one relaxed run,
// checks it against the sequential output, and returns its extra
// iterations and task count. d is nil for the graph-free algorithms.
func runTrial(cfg Config, d *workload.Descriptor, r *rng.Rand, factory sched.Factory) (int64, int, error) {
	n := cfg.Vertices
	switch cfg.Algorithm {
	case algListContract:
		p := listcontract.NewRandomList(n, r)
		labels := core.RandomLabels(n, r)
		prev, next, res, err := listcontract.RunRelaxed(p, labels, factory(n))
		if err != nil {
			return 0, 0, err
		}
		if seqPrev, seqNext := listcontract.Sequential(p, labels); !listcontract.Equal(prev, next, seqPrev, seqNext) {
			return 0, 0, errMismatch
		}
		return res.ExtraIterations(), n, nil
	case algShuffle:
		targets := shuffle.RandomTargets(n, r)
		perm, res, err := shuffle.RunRelaxed(targets, factory(n))
		if err != nil {
			return 0, 0, err
		}
		if !shuffle.Equal(perm, shuffle.Sequential(targets)) {
			return 0, 0, errMismatch
		}
		return res.ExtraIterations(), n, nil
	}

	g, err := graph.GNM(n, cfg.Edges, r)
	if err != nil {
		return 0, 0, err
	}
	inst, err := d.New(g, workload.Params{Seed: r.Uint64()})
	if err != nil {
		return 0, 0, err
	}
	out, cost, err := inst.RunRelaxed(factory(inst.NumTasks()))
	if err != nil {
		return 0, 0, err
	}
	if err := inst.Matches(inst.RunSequential(), out); err != nil {
		return 0, 0, err
	}
	return cost.Wasted, inst.NumTasks(), nil
}

// Size is an input-size cell of a sweep.
type Size struct {
	Vertices int
	Edges    int64
}

// Table1Sizes returns the |V| x |E| grid used by the paper's Table 1.
func Table1Sizes() []Size {
	return []Size{
		{Vertices: 1000, Edges: 10000},
		{Vertices: 1000, Edges: 30000},
		{Vertices: 1000, Edges: 100000},
		{Vertices: 10000, Edges: 10000},
		{Vertices: 10000, Edges: 30000},
		{Vertices: 10000, Edges: 100000},
	}
}

// Table1Ks returns the relaxation factors of the paper's Table 1.
func Table1Ks() []int { return []int{4, 8, 16, 32, 64} }

// Sweep runs a full grid of cells (every size crossed with every k) for one
// algorithm/scheduler pair.
func Sweep(alg string, schedKind Scheduler, sizes []Size, ks []int, trials int, seed uint64) ([]CellResult, error) {
	results := make([]CellResult, 0, len(sizes)*len(ks))
	for _, size := range sizes {
		for _, k := range ks {
			cell, err := RunCell(Config{
				Algorithm: alg,
				Scheduler: schedKind,
				Vertices:  size.Vertices,
				Edges:     size.Edges,
				K:         k,
				Trials:    trials,
				Seed:      seed ^ uint64(size.Vertices)<<32 ^ uint64(size.Edges) ^ uint64(k)<<16,
			})
			if err != nil {
				return nil, err
			}
			results = append(results, cell)
		}
	}
	return results, nil
}

// FormatTable renders sweep results in the layout of the paper's Table 1:
// one row per (|V|, |E|) pair, one column per relaxation factor k, each cell
// holding the mean number of extra iterations.
func FormatTable(results []CellResult) string {
	if len(results) == 0 {
		return "(no results)\n"
	}
	ks := make([]int, 0)
	seenK := make(map[int]bool)
	type rowKey struct {
		v int
		e int64
	}
	rowOrder := make([]rowKey, 0)
	seenRow := make(map[rowKey]bool)
	cells := make(map[rowKey]map[int]float64)
	for _, res := range results {
		k := res.Config.K
		if !seenK[k] {
			seenK[k] = true
			ks = append(ks, k)
		}
		rk := rowKey{v: res.Config.Vertices, e: res.Config.Edges}
		if !seenRow[rk] {
			seenRow[rk] = true
			rowOrder = append(rowOrder, rk)
		}
		if cells[rk] == nil {
			cells[rk] = make(map[int]float64)
		}
		cells[rk][k] = res.ExtraIterations.Mean
	}
	sort.Ints(ks)
	sort.Slice(rowOrder, func(i, j int) bool {
		if rowOrder[i].v != rowOrder[j].v {
			return rowOrder[i].v < rowOrder[j].v
		}
		return rowOrder[i].e < rowOrder[j].e
	})

	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-12s", "|V|", "|E|")
	for _, k := range ks {
		fmt.Fprintf(&b, " k=%-10d", k)
	}
	b.WriteString("\n")
	for _, rk := range rowOrder {
		fmt.Fprintf(&b, "%-10d %-12d", rk.v, rk.e)
		for _, k := range ks {
			if val, ok := cells[rk][k]; ok {
				fmt.Fprintf(&b, " %-12.1f", val)
			} else {
				fmt.Fprintf(&b, " %-12s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
