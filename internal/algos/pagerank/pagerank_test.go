package pagerank

import (
	"math"
	"testing"

	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/exactheap"
	"relaxsched/internal/sched/faaqueue"
	"relaxsched/internal/sched/kbounded"
	"relaxsched/internal/sched/multiqueue"
	"relaxsched/internal/sched/spraylist"
	"relaxsched/internal/sched/topk"
)

func TestPowerIterationUniformOnRegularGraphs(t *testing.T) {
	// On a vertex-transitive graph every vertex has the same rank 1/n.
	for name, g := range map[string]*graph.Graph{
		"cycle":  graph.Cycle(8),
		"clique": graph.Complete(6),
	} {
		ranks, err := PowerIteration(g, Defaults())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := 1 / float64(g.NumVertices())
		for v, r := range ranks {
			if math.Abs(r-want) > 1e-9 {
				t.Fatalf("%s: rank[%d] = %v, want %v", name, v, r, want)
			}
		}
	}
}

func TestPowerIterationStarCenterDominates(t *testing.T) {
	g := graph.Star(9) // vertex 0 is the hub
	ranks, err := PowerIteration(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < g.NumVertices(); v++ {
		if ranks[0] <= ranks[v] {
			t.Fatalf("hub rank %v not above leaf rank %v", ranks[0], ranks[v])
		}
		if math.Abs(ranks[v]-ranks[1]) > 1e-12 {
			t.Fatalf("leaf ranks differ: %v vs %v", ranks[v], ranks[1])
		}
	}
	if s := Sum(ranks); math.Abs(s-1) > 1e-9 {
		t.Fatalf("ranks sum to %v, want 1", s)
	}
}

func TestOptionsValidation(t *testing.T) {
	g := graph.Path(4)
	cases := map[string]Options{
		"zero tolerance":     {Damping: 0.85, Tolerance: 0},
		"negative tolerance": {Damping: 0.85, Tolerance: -1e-9},
		"NaN tolerance":      {Damping: 0.85, Tolerance: math.NaN()},
		"zero damping":       {Damping: 0, Tolerance: 1e-9},
		"unit damping":       {Damping: 1, Tolerance: 1e-9},
		"negative damping":   {Damping: -0.5, Tolerance: 1e-9},
		"NaN damping":        {Damping: math.NaN(), Tolerance: 1e-9},
	}
	for name, opts := range cases {
		if _, err := PowerIteration(g, opts); err == nil {
			t.Fatalf("%s: PowerIteration accepted %+v", name, opts)
		}
		if _, _, err := RunRelaxed(g, exactheap.New(4), opts); err == nil {
			t.Fatalf("%s: RunRelaxed accepted %+v", name, opts)
		}
		if _, _, err := RunConcurrent(g, faaqueue.New(4), core.Options{Workers: 1}, opts); err == nil {
			t.Fatalf("%s: RunConcurrent accepted %+v", name, opts)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	g := graph.Path(4)
	if _, _, err := RunRelaxed(g, nil, Defaults()); err == nil {
		t.Fatal("nil sequential scheduler accepted")
	}
	if _, _, err := RunConcurrent(g, nil, core.Options{Workers: 1}, Defaults()); err == nil {
		t.Fatal("nil concurrent scheduler accepted")
	}
	if _, _, err := RunConcurrent(g, faaqueue.New(4), core.Options{Workers: 0}, Defaults()); err == nil {
		t.Fatal("zero workers accepted")
	}
}

// pushOpts is the per-test accuracy target: tolerance 5e-10 guarantees the
// acceptance bound of 1e-9 L1 against the oracle with margin for the
// oracle's own truncation.
var pushOpts = Options{Damping: DefaultDamping, Tolerance: 5e-10}

func TestRelaxedMatchesOracleAcrossSchedulers(t *testing.T) {
	g, err := graph.GNM(800, 4800, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := PowerIteration(g, pushOpts)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	schedulers := map[string]sched.Scheduler{
		"exactheap":   exactheap.New(n),
		"topk8":       topk.New(8, n, rng.New(1)),
		"multiqueue8": multiqueue.NewSequential(8, n, rng.New(2)),
		"spraylist8":  spraylist.New(8, rng.New(3)),
		"kbounded8":   kbounded.New(8, n),
	}
	for name, s := range schedulers {
		ranks, st, err := RunRelaxed(g, s, pushOpts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := L1(ranks, oracle); d > 1e-9 {
			t.Fatalf("%s: L1 distance to oracle %v exceeds 1e-9", name, d)
		}
		if st.Pops == 0 || st.Pushes == 0 {
			t.Fatalf("%s: no work recorded: %+v", name, st)
		}
		if st.Pushes != st.Pops-st.StalePops {
			t.Fatalf("%s: inconsistent stats %+v", name, st)
		}
		if err := Verify(g, ranks, pushOpts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestConcurrentMatchesOracleOnGNPAndPowerLaw(t *testing.T) {
	gnp, err := graph.GNM(1200, 9600, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := graph.PowerLaw(1500, 8, 2.5, 2, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"gnp": gnp, "powerlaw": pl} {
		oracle, err := PowerIteration(g, pushOpts)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumVertices()
		for _, workers := range []int{1, 2, 4} {
			variants := map[string]sched.Concurrent{
				"multiqueue": multiqueue.NewConcurrent(4*workers, n, 99),
				"faa":        faaqueue.New(n),
				"locked":     sched.NewLocked(exactheap.New(n)),
			}
			for sname, s := range variants {
				ranks, st, err := RunConcurrent(g, s, core.Options{Workers: workers, BatchSize: 8}, pushOpts)
				if err != nil {
					t.Fatalf("%s/%s w=%d: %v", name, sname, workers, err)
				}
				if d := L1(ranks, oracle); d > 1e-9 {
					t.Fatalf("%s/%s w=%d: L1 distance %v exceeds 1e-9", name, sname, workers, d)
				}
				if st.Wasted() < 0 || st.RePushes < 0 {
					t.Fatalf("%s/%s w=%d: negative wasted work %+v", name, sname, workers, st)
				}
			}
		}
	}
}

func TestDanglingMassConservation(t *testing.T) {
	// Two components plus three isolated (dangling) vertices: the self-loop
	// convention must keep the total mass at 1 rather than leaking the
	// dangling vertices' damped residuals.
	g := graph.FromEdges(8, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 3, V: 4},
	})
	oracle, err := PowerIteration(g, pushOpts)
	if err != nil {
		t.Fatal(err)
	}
	if s := Sum(oracle); math.Abs(s-1) > 1e-12 {
		t.Fatalf("oracle mass = %v, want 1", s)
	}
	ranks, _, err := RunRelaxed(g, exactheap.New(8), pushOpts)
	if err != nil {
		t.Fatal(err)
	}
	if s := Sum(ranks); math.Abs(s-1) > pushOpts.Tolerance {
		t.Fatalf("push mass = %v, drifted more than %v from 1", s, pushOpts.Tolerance)
	}
	// Every dangling vertex keeps exactly the uniform teleport share
	// amplified by its self-loop: π = (1-α)/n / (1-α) = 1/n.
	want := 1 / float64(g.NumVertices())
	for _, v := range []int{5, 6, 7} {
		if math.Abs(ranks[v]-want) > 1e-10 {
			t.Fatalf("dangling rank[%d] = %v, want %v", v, ranks[v], want)
		}
	}
	cranks, _, err := RunConcurrent(g, faaqueue.New(8), core.Options{Workers: 2, BatchSize: 4}, pushOpts)
	if err != nil {
		t.Fatal(err)
	}
	if s := Sum(cranks); math.Abs(s-1) > pushOpts.Tolerance {
		t.Fatalf("concurrent push mass = %v, drifted more than %v from 1", s, pushOpts.Tolerance)
	}
}

func TestEmptyAndEdgelessGraphs(t *testing.T) {
	empty := graph.FromEdges(0, nil)
	ranks, st, err := RunRelaxed(empty, exactheap.New(1), Defaults())
	if err != nil || len(ranks) != 0 || st.Pops != 0 {
		t.Fatalf("empty graph: ranks=%v stats=%+v err=%v", ranks, st, err)
	}
	// All-dangling graph: uniform 1/n by symmetry.
	iso := graph.FromEdges(4, nil)
	ranks, _, err = RunRelaxed(iso, exactheap.New(4), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range ranks {
		if math.Abs(r-0.25) > 1e-9 {
			t.Fatalf("isolated rank[%d] = %v, want 0.25", v, r)
		}
	}
}

func TestVerifyRejectsCorruptedRanks(t *testing.T) {
	g, err := graph.GNM(300, 1500, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	ranks, _, err := RunRelaxed(g, exactheap.New(300), pushOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, ranks, pushOpts); err != nil {
		t.Fatal(err)
	}
	bad := append([]float64(nil), ranks...)
	bad[0] += 1e-6
	if err := Verify(g, bad, pushOpts); err == nil {
		t.Fatal("Verify accepted corrupted ranks")
	}
	if err := Verify(g, ranks[:100], pushOpts); err == nil {
		t.Fatal("Verify accepted short rank vector")
	}
}

func TestPriorityOfOrdersResiduals(t *testing.T) {
	// Larger residuals must map to numerically smaller (better) priorities.
	residuals := []float64{0.5, 0.1, 1e-6, 1e-12, 0}
	for i := 1; i < len(residuals); i++ {
		hi, lo := priorityOf(residuals[i-1]), priorityOf(residuals[i])
		if hi >= lo {
			t.Fatalf("priorityOf(%v) = %d not better than priorityOf(%v) = %d",
				residuals[i-1], hi, residuals[i], lo)
		}
	}
	if priorityOf(0) != math.MaxUint32 || priorityOf(-1) != math.MaxUint32 {
		t.Fatal("non-positive residuals must map to the worst priority")
	}
}

func TestWastedWorkGrowsWithRelaxation(t *testing.T) {
	// A heavily relaxed scheduler should need at least as many pushes as the
	// exact residual order; both must still satisfy the tolerance bound.
	g, err := graph.GNM(600, 3600, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	_, exact, err := RunRelaxed(g, exactheap.New(600), pushOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, relaxed, err := RunRelaxed(g, multiqueue.NewSequential(64, 600, rng.New(4)), pushOpts)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Pushes == 0 || relaxed.Pushes == 0 {
		t.Fatalf("missing pushes: exact=%+v relaxed=%+v", exact, relaxed)
	}
	if relaxed.Wasted() < 0 {
		t.Fatalf("negative wasted work: %+v", relaxed)
	}
}
