package integration

import (
	"fmt"
	"reflect"
	"testing"

	"relaxsched/internal/algos/coloring"
	"relaxsched/internal/algos/listcontract"
	"relaxsched/internal/algos/matching"
	"relaxsched/internal/algos/mis"
	"relaxsched/internal/algos/shuffle"
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

// staticCase is one static-contract problem bound to its labels, with the
// accessor that reads its output off a finished instance.
type staticCase struct {
	name    string
	problem core.Problem
	labels  []uint32
	output  func(core.Instance) any
}

// staticCases builds every static problem of the repository on inputs
// derived from seed.
func staticCases(t *testing.T, seed uint64) []staticCase {
	t.Helper()
	r := rng.New(seed)
	const n = 400
	g, err := graph.GNM(n, 2400, r)
	if err != nil {
		t.Fatal(err)
	}
	vertexLabels := core.RandomLabels(n, r)
	edgeLabels := core.RandomLabels(int(g.NumEdges()), r)
	shuffleProblem, err := shuffle.New(shuffle.RandomTargets(600, r))
	if err != nil {
		t.Fatal(err)
	}
	return []staticCase{
		{"mis", mis.New(g), vertexLabels, func(i core.Instance) any { return i.(*mis.Instance).InSet() }},
		{"coloring", coloring.New(g), vertexLabels, func(i core.Instance) any { return i.(*coloring.Instance).Colors() }},
		{"matching", matching.New(g), edgeLabels, func(i core.Instance) any { return i.(*matching.Instance).Matching() }},
		{"listcontract", listcontract.NewRandomList(600, r), core.RandomLabels(600, r), func(i core.Instance) any {
			prev, next := i.(*listcontract.Instance).Contractions()
			return [2][]int32{prev, next}
		}},
		{"shuffle", shuffleProblem, core.IdentityLabels(600), func(i core.Instance) any { return i.(*shuffle.Instance).Permutation() }},
	}
}

// checkStaticResult asserts what every execution of the static contract
// owes: the sequential output, every task resolved exactly once, and the
// counter identities of the paper's cost model.
func checkStaticResult(t *testing.T, c staticCase, want any, res core.Result, policy core.Policy) {
	t.Helper()
	if got := c.output(res.Instance); !reflect.DeepEqual(got, want) {
		t.Fatal("output differs from RunSequential")
	}
	n := int64(c.problem.NumTasks())
	if res.Processed+res.DeadSkips != n {
		t.Fatalf("Processed %d + DeadSkips %d != %d tasks", res.Processed, res.DeadSkips, n)
	}
	if res.Iterations != res.Processed+res.DeadSkips+res.FailedDeletes {
		t.Fatalf("Iterations identity broken: %+v", res)
	}
	if policy == core.Reinsert && res.Waits != 0 {
		t.Fatalf("Waits = %d under Reinsert", res.Waits)
	}
}

// TestStaticContractDifferentialGrid is the one differential test of the
// static contract: every static problem, through the adapter over both
// engine loops, under every scheduler family, worker count and batch size,
// must reproduce RunSequential bit for bit and keep its books.
func TestStaticContractDifferentialGrid(t *testing.T) {
	concurrent := []struct {
		name   string
		policy core.Policy
		build  func(capacity, workers int, seed uint64) sched.Concurrent
	}{
		{"locked-exact-heap", core.Reinsert, func(c, _ int, _ uint64) sched.Concurrent { return sched.NewLocked(exactheap.New(c)) }},
		{"multiqueue", core.Reinsert, func(c, w int, s uint64) sched.Concurrent { return multiqueue.NewConcurrent(4*w, c, s) }},
		{"locked-kbounded", core.Reinsert, func(c, _ int, _ uint64) sched.Concurrent { return sched.NewLocked(kbounded.New(16, c)) }},
		{"locked-spraylist", core.Reinsert, func(_, _ int, s uint64) sched.Concurrent { return sched.NewLocked(spraylist.New(8, rng.New(s))) }},
		{"locked-topk", core.Reinsert, func(c, _ int, s uint64) sched.Concurrent { return sched.NewLocked(topk.New(16, c, rng.New(s))) }},
		{"faaqueue-wait", core.Wait, func(c, _ int, _ uint64) sched.Concurrent { return faaqueue.New(c) }},
	}
	sequential := []struct {
		name  string
		build func(capacity int, seed uint64) sched.Scheduler
	}{
		{"exactheap", func(c int, _ uint64) sched.Scheduler { return exactheap.New(c) }},
		{"multiqueue", func(c int, s uint64) sched.Scheduler { return multiqueue.NewSequential(8, c, rng.New(s)) }},
		{"kbounded", func(c int, _ uint64) sched.Scheduler { return kbounded.New(8, c) }},
		{"spraylist", func(_ int, s uint64) sched.Scheduler { return spraylist.New(8, rng.New(s)) }},
		{"topk", func(c int, s uint64) sched.Scheduler { return topk.New(8, c, rng.New(s)) }},
	}

	for _, seed := range []uint64{11, 4242, 90210} {
		for _, c := range staticCases(t, seed) {
			seq, err := core.RunSequential(c.problem, c.labels)
			if err != nil {
				t.Fatal(err)
			}
			want := c.output(seq.Instance)
			n := c.problem.NumTasks()

			for _, sc := range sequential {
				t.Run(fmt.Sprintf("%s/seed=%d/relaxed/%s", c.name, seed, sc.name), func(t *testing.T) {
					res, err := core.RunRelaxed(c.problem, c.labels, sc.build(n, seed))
					if err != nil {
						t.Fatal(err)
					}
					checkStaticResult(t, c, want, res, core.Reinsert)
					if sc.name == "exactheap" && res.FailedDeletes != 0 {
						t.Fatalf("exact scheduler produced %d failed deletes", res.FailedDeletes)
					}
				})
			}
			for _, sc := range concurrent {
				for _, workers := range []int{1, 2, 4} {
					for _, batch := range []int{1, 16, 64} {
						t.Run(fmt.Sprintf("%s/seed=%d/%s/workers=%d/batch=%d", c.name, seed, sc.name, workers, batch), func(t *testing.T) {
							res, err := core.RunConcurrent(c.problem, c.labels, sc.build(n, workers, seed), sc.policy,
								core.Options{Workers: workers, BatchSize: batch})
							if err != nil {
								t.Fatal(err)
							}
							checkStaticResult(t, c, want, res, sc.policy)
						})
					}
				}
			}
		}
	}
}
