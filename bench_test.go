// Repository-level benchmarks for what neither CLI measures: the theorem
// validation sweeps and the ablations of EXPERIMENTS.md's "Theorem
// validations and ablations" section. Table 1 is regenerated by
// cmd/relaxsim -table1 and Figure 2 by cmd/relaxbench; their outputs are
// recorded in EXPERIMENTS.md. Extra iterations are reported as the custom
// metric extra-iters with b.ReportMetric, so the shape results of the
// paper are visible directly in the benchmark output.
package relaxsched_test

import (
	"fmt"
	"runtime"
	"testing"

	"relaxsched/internal/algos/mis"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/kbounded"
	"relaxsched/internal/sched/multiqueue"
	"relaxsched/internal/sched/spraylist"
	"relaxsched/internal/sched/topk"
	"relaxsched/internal/sim"
)

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
// Ablations (EXPERIMENTS.md, "Theorem validations and ablations").
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
