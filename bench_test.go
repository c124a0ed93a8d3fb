// Repository-level benchmarks: one benchmark per table and figure of the
// paper's evaluation, plus the ablation benchmarks called out in DESIGN.md.
//
// The table/figure benchmarks use scaled-down inputs so that
// `go test -bench=. -benchmem` finishes in minutes on a development machine;
// the full-size reproductions are produced by cmd/relaxsim (-table1) and
// cmd/relaxbench, whose outputs are recorded in EXPERIMENTS.md. Custom
// benchmark metrics (extra-iterations, speedup) are reported with b.ReportMetric
// so the "shape" results of the paper are visible directly in the benchmark
// output.
package relaxsched_test

import (
	"fmt"
	"runtime"
	"testing"

	"relaxsched/internal/algos/mis"
	"relaxsched/internal/bench"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/faaqueue"
	"relaxsched/internal/sched/kbounded"
	"relaxsched/internal/sched/multiqueue"
	"relaxsched/internal/sched/spraylist"
	"relaxsched/internal/sched/topk"
	"relaxsched/internal/sim"
)

// ---------------------------------------------------------------------------
// Table 1: extra iterations of relaxed MIS as a function of k, |V|, |E|.
// ---------------------------------------------------------------------------

// BenchmarkTable1ExtraIterations regenerates the cells of Table 1 (at reduced
// trial counts): for each (|V|, |E|, k) cell it runs the MultiQueue-model
// relaxed MIS and reports the mean number of extra iterations as a custom
// metric.
func BenchmarkTable1ExtraIterations(b *testing.B) {
	for _, size := range []sim.Size{
		{Vertices: 1000, Edges: 10000},
		{Vertices: 1000, Edges: 30000},
		{Vertices: 1000, Edges: 100000},
		{Vertices: 10000, Edges: 10000},
		{Vertices: 10000, Edges: 30000},
		{Vertices: 10000, Edges: 100000},
	} {
		for _, k := range []int{4, 8, 16, 32, 64} {
			name := fmt.Sprintf("V=%d/E=%d/k=%d", size.Vertices, size.Edges, k)
			b.Run(name, func(b *testing.B) {
				total := 0.0
				for i := 0; i < b.N; i++ {
					cell, err := sim.RunCell(sim.Config{
						Algorithm: "mis",
						Scheduler: sim.SchedMultiQueue,
						Vertices:  size.Vertices,
						Edges:     size.Edges,
						K:         k,
						Trials:    1,
						Seed:      uint64(i + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
					total += cell.ExtraIterations.Mean
				}
				b.ReportMetric(total/float64(b.N), "extra-iters")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 2: concurrent MIS runtime, relaxed vs exact vs sequential, per class.
// ---------------------------------------------------------------------------

// figure2Benchmark runs one scaled-down Figure 2 panel cell: MIS on a G(n,p)
// graph of the given class with the given scheduler and thread count.
func figure2Benchmark(b *testing.B, class bench.Class, scheduler string, threads int) {
	b.Helper()
	r := rng.New(0xf16)
	p := float64(2*class.Edges) / (float64(class.Vertices) * float64(class.Vertices-1))
	g, err := graph.ParallelGNP(class.Vertices, p, runtime.GOMAXPROCS(0), r)
	if err != nil {
		b.Fatal(err)
	}
	labels := core.RandomLabels(g.NumVertices(), r)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch scheduler {
		case "sequential":
			set := mis.Sequential(g, labels)
			if len(set) != g.NumVertices() {
				b.Fatal("bad sequential result")
			}
		case bench.SchedulerRelaxed:
			mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*threads, g.NumVertices(), uint64(i))
			if _, _, err := mis.RunConcurrent(g, labels, mq, core.Reinsert, core.Options{Workers: threads}); err != nil {
				b.Fatal(err)
			}
		case bench.SchedulerExact:
			q := faaqueue.New(g.NumVertices())
			if _, _, err := mis.RunConcurrent(g, labels, q, core.Wait, core.Options{Workers: threads}); err != nil {
				b.Fatal(err)
			}
		default:
			b.Fatalf("unknown scheduler %q", scheduler)
		}
	}
}

// benchClasses are scaled-down versions of the paper's three graph classes,
// small enough for go test -bench to iterate.
var benchClasses = []bench.Class{
	{Name: "Sparse", Vertices: 50_000, Edges: 500_000},
	{Name: "SmallDense", Vertices: 5_000, Edges: 500_000},
	{Name: "LargeDense", Vertices: 15_000, Edges: 1_500_000},
}

func figure2ThreadCounts() []int {
	threads := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		threads = append(threads, p)
	}
	return threads
}

func BenchmarkFigure2Sparse(b *testing.B)     { runFigure2Class(b, benchClasses[0]) }
func BenchmarkFigure2SmallDense(b *testing.B) { runFigure2Class(b, benchClasses[1]) }
func BenchmarkFigure2LargeDense(b *testing.B) { runFigure2Class(b, benchClasses[2]) }

func runFigure2Class(b *testing.B, class bench.Class) {
	b.Run("sequential", func(b *testing.B) {
		figure2Benchmark(b, class, "sequential", 1)
	})
	for _, threads := range figure2ThreadCounts() {
		b.Run(fmt.Sprintf("relaxed/threads=%d", threads), func(b *testing.B) {
			figure2Benchmark(b, class, bench.SchedulerRelaxed, threads)
		})
		b.Run(fmt.Sprintf("exact/threads=%d", threads), func(b *testing.B) {
			figure2Benchmark(b, class, bench.SchedulerExact, threads)
		})
	}
}

// ---------------------------------------------------------------------------
// Theorem validation sweeps (Section 3, not numbered tables in the paper).
// ---------------------------------------------------------------------------

// BenchmarkTheorem1Sweep measures the extra iterations of the generic
// framework (greedy coloring) as density m/n grows, which Theorem 1 predicts
// to scale as O(m/n)·poly(k).
func BenchmarkTheorem1Sweep(b *testing.B) {
	const n = 2000
	for _, m := range []int64{2000, 8000, 32000, 128000} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			total := 0.0
			for i := 0; i < b.N; i++ {
				cell, err := sim.RunCell(sim.Config{
					Algorithm: "coloring",
					Vertices:  n,
					Edges:     m,
					K:         16,
					Trials:    1,
					Seed:      uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				total += cell.ExtraIterations.Mean
			}
			b.ReportMetric(total/float64(b.N), "extra-iters")
		})
	}
}

// BenchmarkTheorem2Independence measures the extra iterations of relaxed MIS
// as n grows at fixed average degree and fixed k; Theorem 2 predicts they do
// not grow with n.
func BenchmarkTheorem2Independence(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000, 64000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			total := 0.0
			for i := 0; i < b.N; i++ {
				cell, err := sim.RunCell(sim.Config{
					Algorithm: "mis",
					Vertices:  n,
					Edges:     int64(10 * n),
					K:         16,
					Trials:    1,
					Seed:      uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				total += cell.ExtraIterations.Mean
			}
			b.ReportMetric(total/float64(b.N), "extra-iters")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md section 6).
// ---------------------------------------------------------------------------

// BenchmarkAblationDeadShortcut compares Algorithm 4 (MIS with the
// dead-vertex shortcut, the default Problem) against plain Algorithm 2
// semantics (no Dead shortcut) on the same input, reporting extra iterations.
func BenchmarkAblationDeadShortcut(b *testing.B) {
	r := rng.New(4242)
	const n = 5000
	g, err := graph.GNM(n, 50000, r)
	if err != nil {
		b.Fatal(err)
	}
	labels := core.RandomLabels(n, r)

	b.Run("with-dead-shortcut", func(b *testing.B) {
		total := 0.0
		for i := 0; i < b.N; i++ {
			_, res, err := mis.RunRelaxed(g, labels, multiqueue.NewSequential(32, n, rng.New(uint64(i))))
			if err != nil {
				b.Fatal(err)
			}
			total += float64(res.ExtraIterations())
		}
		b.ReportMetric(total/float64(b.N), "extra-iters")
	})
	b.Run("without-dead-shortcut", func(b *testing.B) {
		total := 0.0
		for i := 0; i < b.N; i++ {
			res, err := core.RunRelaxed(&plainMISProblem{g: g}, labels, multiqueue.NewSequential(32, n, rng.New(uint64(i))))
			if err != nil {
				b.Fatal(err)
			}
			total += float64(res.ExtraIterations())
		}
		b.ReportMetric(total/float64(b.N), "extra-iters")
	})
}

// plainMISProblem is greedy MIS expressed as plain Algorithm 2, without the
// Algorithm 4 dead-vertex shortcut: a vertex must wait for every
// higher-priority neighbor to be processed (even neighbors that can no
// longer join the set), and Process makes the greedy membership decision.
type plainMISProblem struct {
	g *graph.Graph
}

func (p *plainMISProblem) NumTasks() int { return p.g.NumVertices() }

func (p *plainMISProblem) NewInstance(st core.State) core.Instance {
	return &plainMISInstance{g: p.g, st: st, inSet: make([]bool, p.g.NumVertices())}
}

type plainMISInstance struct {
	g     *graph.Graph
	st    core.State
	inSet []bool
}

func (inst *plainMISInstance) Blocked(v int) bool {
	lv := inst.st.Label(v)
	for _, u := range inst.g.Neighbors(v) {
		if inst.st.Label(int(u)) < lv && !inst.st.Processed(int(u)) {
			return true
		}
	}
	return false
}

func (inst *plainMISInstance) Dead(int) bool { return false }

func (inst *plainMISInstance) Process(v int) {
	lv := inst.st.Label(v)
	for _, u := range inst.g.Neighbors(v) {
		if inst.st.Label(int(u)) < lv && inst.inSet[u] {
			return
		}
	}
	inst.inSet[v] = true
}

// BenchmarkAblationMultiQueueFactor varies the number of MultiQueue
// sub-queues per thread (the paper uses 4) in the concurrent MIS run.
func BenchmarkAblationMultiQueueFactor(b *testing.B) {
	r := rng.New(777)
	const n = 20000
	g, err := graph.GNM(n, 400000, r)
	if err != nil {
		b.Fatal(err)
	}
	labels := core.RandomLabels(n, r)
	workers := runtime.GOMAXPROCS(0)
	for _, factor := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("factor=%d", factor), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mq := multiqueue.NewConcurrent(factor*workers, n, uint64(i))
				if _, _, err := mis.RunConcurrent(g, labels, mq, core.Reinsert, core.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSchedulerFamily compares the sequential-model scheduler
// families at the same relaxation factor on relaxed MIS.
func BenchmarkAblationSchedulerFamily(b *testing.B) {
	r := rng.New(909)
	const n = 10000
	g, err := graph.GNM(n, 100000, r)
	if err != nil {
		b.Fatal(err)
	}
	labels := core.RandomLabels(n, r)
	const k = 16
	families := []struct {
		name    string
		factory func(i int) sched.Scheduler
	}{
		{"multiqueue", func(i int) sched.Scheduler { return multiqueue.NewSequential(k, n, rng.New(uint64(i))) }},
		{"topk", func(i int) sched.Scheduler { return topk.New(k, n, rng.New(uint64(i))) }},
		{"spraylist", func(i int) sched.Scheduler { return spraylist.New(k, rng.New(uint64(i))) }},
		{"kbounded", func(i int) sched.Scheduler { return kbounded.New(k, n) }},
	}
	for _, family := range families {
		b.Run(family.name, func(b *testing.B) {
			total := 0.0
			for i := 0; i < b.N; i++ {
				_, res, err := mis.RunRelaxed(g, labels, family.factory(i))
				if err != nil {
					b.Fatal(err)
				}
				total += float64(res.ExtraIterations())
			}
			b.ReportMetric(total/float64(b.N), "extra-iters")
		})
	}
}

// BenchmarkAblationReinsertPolicy compares the Reinsert and Wait policies for
// blocked tasks when running the relaxed MultiQueue concurrently.
func BenchmarkAblationReinsertPolicy(b *testing.B) {
	r := rng.New(313)
	const n = 20000
	g, err := graph.GNM(n, 200000, r)
	if err != nil {
		b.Fatal(err)
	}
	labels := core.RandomLabels(n, r)
	workers := runtime.GOMAXPROCS(0)
	for _, pc := range []struct {
		name   string
		policy core.Policy
	}{{"reinsert", core.Reinsert}, {"wait", core.Wait}} {
		b.Run(pc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*workers, n, uint64(i))
				if _, _, err := mis.RunConcurrent(g, labels, mq, pc.policy, core.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
