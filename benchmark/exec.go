package main

import (
	"fmt"
	"runtime"
	"time"

	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
	"relaxsched/internal/workload"
)

// The exec workloads: a library user runs one iterative algorithm under
// the concurrent MultiQueue and waits for a checked solution. Nothing
// above internal/workload runs here.

// execBatch is the executor batch size of every timed run.
const execBatch = 64

// genWorkers is the generator's goroutine count. ParallelGNP gives every
// worker its own random stream, so the count is part of the input's
// identity: it is fixed here rather than taken from the machine, and equal
// seeds give equal graphs on any box.
const genWorkers = 4

// graphDef describes one generated input. Rows > 0 selects a grid;
// otherwise G(n, p) with p chosen for m expected edges.
type graphDef struct {
	N, M int
	Rows int
}

func (d graphDef) build(seed uint64) (*graph.Graph, error) {
	if d.Rows > 0 {
		return graph.Grid(d.Rows, d.N/d.Rows), nil
	}
	p := 2 * float64(d.M) / (float64(d.N) * float64(d.N-1))
	return graph.ParallelGNP(d.N, p, genWorkers, rng.New(seed))
}

// execCase is one algorithm on one input; Metric is the end-to-end metric
// its median solve time reports as.
type execCase struct {
	Metric string
	Algo   string
	Graph  int // index into execConfig.Graphs
	// Reps is how many timed runs of this case one round makes; the fast
	// cases repeat so every case collects a comparable sample.
	Reps   int
	Params workload.Params
}

type execConfig struct {
	Graphs []graphDef
	Cases  []execCase
	// SetupReps is how many times set-up is repeated; setup_s is the
	// median.
	SetupReps int
}

// Input sizes are smaller than the issue sketched (n=1e6, m=1e7): a run
// of the second algorithm on that graph takes seconds here, which leaves
// a handful of samples in the measuring window and a spread several times
// the bound.
//
// The second algorithm is coloring, not matching as the issue asked:
// concurrent matching at this commit now and then returns a matching that
// differs from the sequential one (about one run in 500 on this input;
// README.md has the interleaving), and a workload may not fail.
func execStaticConfig() execConfig {
	return execConfig{
		Graphs: []graphDef{{N: 200_000, M: 2_000_000}},
		Cases: []execCase{
			{Metric: "mis_solve_s", Algo: "mis", Reps: 4},
			{Metric: "coloring_solve_s", Algo: "coloring", Reps: 1},
		},
		SetupReps: 9,
	}
}

func execDynamicConfig() execConfig {
	return execConfig{
		Graphs: []graphDef{
			{N: 100_000, M: 1_000_000},
			{N: 250_000, Rows: 500},
			{N: 5_000, M: 50_000},
		},
		Cases: []execCase{
			{Metric: "sssp_solve_s", Algo: "sssp", Graph: 0, Reps: 3, Params: workload.Params{Source: -1}},
			{Metric: "kcore_solve_s", Algo: "kcore", Graph: 0, Reps: 3},
			{Metric: "sssp_grid_solve_s", Algo: "sssp", Graph: 1, Reps: 3, Params: workload.Params{Source: -1}},
			{Metric: "pagerank_solve_s", Algo: "pagerank", Graph: 2, Reps: 1, Params: workload.Params{Tolerance: 1e-6}},
		},
		SetupReps: 9,
	}
}

// execState is one completed set-up: inputs built, instances bound and
// sequential references computed.
type execState struct {
	graphs []*graph.Graph
	insts  []workload.Instance
	refs   []workload.Output

	buildS, bindS, seqS float64
	edges               int64
}

func execSetup(cfg execConfig, seed uint64) (*execState, error) {
	st := &execState{}
	t0 := time.Now()
	for i, gd := range cfg.Graphs {
		g, err := gd.build(seed + uint64(i))
		if err != nil {
			return nil, fmt.Errorf("building graph %d: %w", i, err)
		}
		st.graphs = append(st.graphs, g)
		st.edges += int64(g.NumEdges())
	}
	st.buildS = time.Since(t0).Seconds()
	for _, c := range cfg.Cases {
		d, err := workload.Lookup(c.Algo)
		if err != nil {
			return nil, err
		}
		p := c.Params
		p.Seed = seed
		t0 = time.Now()
		inst, err := d.New(st.graphs[c.Graph], p)
		if err != nil {
			return nil, fmt.Errorf("binding %s: %w", c.Algo, err)
		}
		st.bindS += time.Since(t0).Seconds()
		t0 = time.Now()
		ref := inst.RunSequential()
		st.seqS += time.Since(t0).Seconds()
		st.insts = append(st.insts, inst)
		st.refs = append(st.refs, ref)
	}
	return st, nil
}

// execTimed runs case i once on a fresh MultiQueue and returns the wall
// time of the RunConcurrent call alone. The collector runs first so every
// timed run starts from the same heap state.
func (st *execState) execTimed(i, threads int, schedSeed uint64, log *spanLog, trace uint64) (time.Duration, workload.Output, workload.Cost, error) {
	inst := st.insts[i]
	runtime.GC()
	opStart := log.now()
	mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*threads, inst.NumTasks(), schedSeed)
	runStart := log.now()
	t0 := time.Now()
	out, cost, err := inst.RunConcurrent(mq, workload.ConcOptions{Workers: threads, BatchSize: execBatch})
	el := time.Since(t0)
	runEnd := log.now()
	if err != nil {
		return el, nil, cost, err
	}
	stats := mq.Stats()
	cost.Steals, cost.GlobalFallbacks = stats.Steals, stats.GlobalFallbacks
	err = inst.Matches(st.refs[i], out)
	if log.on() {
		end := log.now()
		log.add(trace, spanExecOp, "", opStart, end)
		log.add(trace, spanSchedNew, spanExecOp, opStart, runStart)
		log.add(trace, spanCoreRun, spanExecOp, runStart, runEnd)
		log.add(trace, spanMatches, spanExecOp, runEnd, end)
	}
	return el, out, cost, err
}

// runExec measures one exec workload for about `seconds`.
func runExec(name string, cfg execConfig, seed uint64, seconds float64, traced bool) (*runResult, error) {
	res := newRunResult(name, seed, traced)
	threads := benchThreads()

	var st *execState
	var setups []float64
	for r := 0; r < cfg.SetupReps; r++ {
		t0 := time.Now()
		s, err := execSetup(cfg, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		st = s
	}
	res.setDist("setup_s", setups)
	res.Phases["setup"] = sum(setups)

	log := newSpanLog()
	start := time.Now()
	if traced {
		res.Values["graph.build_s"] = st.buildS
		res.Values["graph.build_edges_per_s"] = float64(st.edges) / st.buildS
		res.Values["workload.bind_s"] = st.bindS
		res.Values["workload.sequential_s"] = st.seqS
		if err := execProbes(res, cfg, st, seed, threads); err != nil {
			return nil, err
		}
		res.Phases["probes"] = time.Since(start).Seconds()
		log.enabled.Store(true)
	}

	// One untimed run of every case: first-touch page faults and lazily
	// sized pools are not what a repeated user pays.
	for i := range cfg.Cases {
		if _, _, _, err := st.execTimed(i, threads, seed, log, 0); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", cfg.Cases[i].Metric, err)
		}
	}
	log.reset()

	samples := make([][]float64, len(cfg.Cases))
	lastOut := make([]workload.Output, len(cfg.Cases))
	var total workload.Cost
	var solveNs float64
	proc := readProcess()
	measureStart := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < seconds; round++ {
		for i, c := range cfg.Cases {
			for r := 0; r < c.Reps; r++ {
				res.Attempted++
				schedSeed := seed<<20 + uint64(res.Attempted)
				el, out, cost, err := st.execTimed(i, threads, schedSeed, log, uint64(res.Attempted))
				if err != nil {
					res.fail("%s run %d: %v", c.Metric, res.Attempted, err)
					continue
				}
				samples[i] = append(samples[i], el.Seconds())
				lastOut[i] = out
				solveNs += float64(el.Nanoseconds())
				total.Pops += cost.Pops
				total.StalePops += cost.StalePops
				total.EmptyPolls += cost.EmptyPolls
				total.Steals += cost.Steals
				total.GlobalFallbacks += cost.GlobalFallbacks
			}
		}
	}
	res.Phases["measure"] = time.Since(measureStart).Seconds()
	procAfter := readProcess()

	// One full oracle check per algorithm, on the last output it produced.
	verifyStart := time.Now()
	for i, c := range cfg.Cases {
		if lastOut[i] == nil {
			continue
		}
		if err := st.insts[i].Verify(lastOut[i]); err != nil {
			res.fail("%s verify: %v", c.Metric, err)
		}
	}
	res.Phases["verify"] = time.Since(verifyStart).Seconds()

	for i, c := range cfg.Cases {
		res.setDist(c.Metric, samples[i])
	}
	if solveNs > 0 {
		res.OpsPerS = float64(res.Attempted-res.Failed) / (solveNs / 1e9)
	}
	if traced {
		res.Values["workload.verify_s"] = res.Phases["verify"]
		res.Values["sched.steals"] = float64(total.Steals)
		res.Values["sched.global_fallbacks"] = float64(total.GlobalFallbacks)
		res.Values["sched.empty_polls"] = float64(total.EmptyPolls)
		if total.Pops > 0 {
			res.Values["core.useful_pop_ratio"] = float64(total.Pops-total.StalePops) / float64(total.Pops)
			res.Values["core.ns_per_pop"] = solveNs * float64(threads) / float64(total.Pops)
		}
		res.setProcess(proc, procAfter, res.Attempted)
		res.spans = log.snapshot()
	}
	return res, nil
}
