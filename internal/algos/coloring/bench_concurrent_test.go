package coloring

import (
	"fmt"
	"testing"

	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
)

// BenchmarkConcurrentColoring times the static contract through the engine
// on a 100k-vertex G(n, m) instance across worker counts — the coloring
// counterpart of mis's BenchmarkConcurrentMIS, pinned at workers=1 in
// scripts/benchdiff.sh so Blocked's and Process's per-task cost is gated.
// The problem is bound once, outside the loop, so the orientation (timed by
// graph's BenchmarkOrient) is not part of an iteration.
func BenchmarkConcurrentColoring(b *testing.B) {
	r := rng.New(1)
	g, err := graph.GNM(100_000, 1_000_000, r)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	p, err := New(g, core.RandomLabels(n, r))
	if err != nil {
		b.Fatal(err)
	}
	want := p.Sequential()
	ids := core.IdentityLabels(n)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var res core.Result
			for i := 0; i < b.N; i++ {
				mq := multiqueue.NewConcurrent(4*workers, n, uint64(i)+1)
				res, err = core.RunConcurrent(p, ids, mq, core.Reinsert, core.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if !Equal(res.Instance.(*Instance).Colors(), want) {
				b.Fatal("concurrent coloring differs from sequential")
			}
		})
	}
}
