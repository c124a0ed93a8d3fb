// Package integration contains cross-cutting tests that exercise the whole
// pipeline — graph generation, priority permutations, every scheduler family,
// every algorithm, and both contracts of the one engine — against the
// sequential oracles. These are the repository's end-to-end determinism and
// correctness guarantees.
package integration

import (
	"bytes"
	"fmt"
	"testing"

	"relaxsched/internal/algos/coloring"
	"relaxsched/internal/algos/matching"
	"relaxsched/internal/algos/mis"
	"relaxsched/internal/algos/sssp"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/kbounded"
	"relaxsched/internal/sched/multiqueue"
	"relaxsched/internal/sched/spraylist"
	"relaxsched/internal/sched/topk"
)

func TestEndToEndFileRoundTripPipeline(t *testing.T) {
	// Generate -> serialize -> parse -> solve (all algorithms) -> verify:
	// the full path a user of the CLI tools takes.
	r := rng.New(777)
	g, err := graph.BarabasiAlbert(600, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	parsed, err := graph.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.NumVertices() != g.NumVertices() || parsed.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed the graph")
	}

	labels := core.RandomLabels(parsed.NumVertices(), r)
	inSet, _, err := mis.RunRelaxed(parsed, labels, multiqueue.NewSequential(8, parsed.NumVertices(), r.Fork()))
	if err != nil {
		t.Fatal(err)
	}
	if err := mis.Verify(parsed, inSet); err != nil {
		t.Fatal(err)
	}

	colors, _, err := coloring.RunRelaxed(parsed, labels, spraylist.New(8, r.Fork()))
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.Verify(parsed, labels, colors); err != nil {
		t.Fatal(err)
	}

	edgeLabels := core.RandomLabels(int(parsed.NumEdges()), r)
	matched, _, err := matching.RunRelaxed(parsed, edgeLabels, kbounded.New(8, int(parsed.NumEdges())))
	if err != nil {
		t.Fatal(err)
	}
	if err := matching.Verify(parsed, matched); err != nil {
		t.Fatal(err)
	}

	weights, err := graph.RandomWeights(parsed, 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	dist, _, err := sssp.RunConcurrent(parsed, weights, 0, multiqueue.NewConcurrent(8, parsed.NumVertices(), 5), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sssp.Verify(parsed, weights, 0, dist); err != nil {
		t.Fatal(err)
	}
}

func TestDefinitionOneHoldsForConcurrentMultiQueue(t *testing.T) {
	// Drive a real concurrent MIS execution through an instrumented
	// MultiQueue and check that the observed relaxation looks like the
	// (k, φ)-relaxed model: with single-item deliveries (BatchSize 1) the
	// scheduler's intrinsic relaxation must satisfy k = O(#queues) as in the
	// paper's reference [2]; with the executor's batched deliveries the
	// effective relaxation grows to k = O(#queues + batch), because a batch
	// removal returns up to B items of one sub-queue in one episode. Both
	// regimes keep mean rank and inversions far below n.
	r := rng.New(31)
	const n = 4000
	const workers = 4
	const queues = 4 * workers
	g, err := graph.GNM(n, 20000, r)
	if err != nil {
		t.Fatal(err)
	}
	labels := core.RandomLabels(n, r)
	want := mis.Sequential(g, labels)

	// The max-rank caps differ by regime: single-item two-choice keeps the
	// worst rank near O(#queues·log n); a batched removal drains up to B
	// items from one sub-queue per sampling round, so a queue that stays
	// unsampled for a while ages ~B times faster and the worst-case outlier
	// grows to ~B·#queues·ln n (≈1300 here, observed under the race
	// detector's adversarial interleavings) — still well below n.
	for _, tc := range []struct {
		name     string
		batch    int
		meanCap  float64
		maxShare int
	}{
		{name: "single-item", batch: 1, meanCap: 8 * queues, maxShare: n / 4},
		{name: "batched", batch: core.DefaultBatchSize,
			meanCap: 8*queues + 4*core.DefaultBatchSize, maxShare: n / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := multiqueue.NewConcurrent(queues, n, 17)
			instrumented := sched.NewConcurrentInstrumented(inner, n)
			got, _, err := mis.RunConcurrent(g, labels, instrumented,
				core.Reinsert, core.Options{Workers: workers, BatchSize: tc.batch})
			if err != nil {
				t.Fatal(err)
			}
			if !mis.Equal(got, want) {
				t.Fatal("instrumented concurrent MIS differs from sequential")
			}
			m := instrumented.Metrics()
			if m.Removals < int64(n) {
				t.Fatalf("instrumented scheduler saw only %d removals for %d tasks", m.Removals, n)
			}
			if m.MeanRank > tc.meanCap {
				t.Fatalf("mean rank %.1f too large for %d queues at batch %d", m.MeanRank, queues, tc.batch)
			}
			if m.MaxRank > tc.maxShare {
				t.Fatalf("max rank %d is a large fraction of n=%d", m.MaxRank, n)
			}
			if m.MeanInversions > float64(32*queues+8*tc.batch) {
				t.Fatalf("mean inversions %.1f too large for %d queues at batch %d", m.MeanInversions, queues, tc.batch)
			}
		})
	}
}

func TestTheoremScalingShapes(t *testing.T) {
	// A coarse end-to-end restatement of the two theorem-validation
	// experiments in EXPERIMENTS.md: MIS overhead does not scale with n
	// (Theorem 2) while generic-framework overhead grows with density
	// (Theorem 1).
	if testing.Short() {
		t.Skip("scaling test is slow")
	}
	misExtra := func(n int) float64 {
		r := rng.New(uint64(n))
		g, err := graph.GNM(n, int64(10*n), r)
		if err != nil {
			t.Fatal(err)
		}
		labels := core.RandomLabels(n, r)
		total := 0.0
		const trials = 3
		for trial := 0; trial < trials; trial++ {
			_, res, err := mis.RunRelaxed(g, labels, multiqueue.NewSequential(16, n, rng.New(uint64(trial))))
			if err != nil {
				t.Fatal(err)
			}
			total += float64(res.ExtraIterations())
		}
		return total / trials
	}
	small := misExtra(1000)
	large := misExtra(32000)
	if large > 10*(small+30) {
		t.Fatalf("Theorem 2 shape violated: extra iterations grew from %.1f (n=1000) to %.1f (n=32000)", small, large)
	}

	coloringExtra := func(m int64) float64 {
		r := rng.New(uint64(m))
		const n = 1500
		g, err := graph.GNM(n, m, r)
		if err != nil {
			t.Fatal(err)
		}
		labels := core.RandomLabels(n, r)
		_, res, err := coloring.RunRelaxed(g, labels, multiqueue.NewSequential(16, n, r.Fork()))
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.ExtraIterations())
	}
	sparse := coloringExtra(1500)
	dense := coloringExtra(60000)
	if dense < 3*sparse {
		t.Fatalf("Theorem 1 shape violated: extra iterations did not grow with density (%.1f at m=n vs %.1f at m=40n)", sparse, dense)
	}
}

func TestLabelsReuseAcrossAlgorithmsIsIndependent(t *testing.T) {
	// Sanity check that algorithms do not mutate shared inputs: running MIS
	// must not change the labels or the graph used afterwards by coloring.
	r := rng.New(606)
	const n = 500
	g, err := graph.GNM(n, 2500, r)
	if err != nil {
		t.Fatal(err)
	}
	labels := core.RandomLabels(n, r)
	labelsCopy := append([]uint32(nil), labels...)

	if _, _, err := mis.RunRelaxed(g, labels, topk.New(8, n, r.Fork())); err != nil {
		t.Fatal(err)
	}
	for i := range labels {
		if labels[i] != labelsCopy[i] {
			t.Fatal("MIS execution mutated the shared label slice")
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("MIS execution corrupted the graph: %v", err)
	}
	colors := coloring.Sequential(g, labels)
	if err := coloring.Verify(g, labels, colors); err != nil {
		t.Fatal(err)
	}
}

func TestVerifiersRejectCrossAlgorithmOutputs(t *testing.T) {
	// Feeding one algorithm's output into another's verifier must fail —
	// guards against verifiers that accept anything.
	g := graph.Complete(6)
	labels := core.IdentityLabels(6)
	inSet := mis.Sequential(g, labels)
	asColors := make([]int32, len(inSet))
	for i, in := range inSet {
		if in {
			asColors[i] = 0
		} else {
			asColors[i] = 0 // deliberately improper: clique needs 6 colors
		}
	}
	if err := coloring.Verify(g, labels, asColors); err == nil {
		t.Fatal("coloring verifier accepted a constant coloring of a clique")
	}
}

func TestTinyDeterministicEndToEnd(t *testing.T) {
	// A tiny fully deterministic end-to-end run with a known answer,
	// doubling as an example of the API surface.
	g := graph.Path(5)
	labels := core.IdentityLabels(5)
	set, res, err := mis.RunRelaxed(g, labels, topk.New(2, 5, rng.New(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(set, res.Processed); got != "[true false true false true] 3" {
		t.Fatalf("unexpected result %q", got)
	}
}
