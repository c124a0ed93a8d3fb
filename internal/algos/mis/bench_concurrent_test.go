package mis

import (
	"fmt"
	"testing"

	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
)

// BenchmarkConcurrentMIS times the static contract through the engine on a
// 100k-vertex G(n, m) instance across worker counts — the static-path
// counterpart of sssp's BenchmarkConcurrentSSSP, pinned at workers=1 in
// scripts/benchdiff.sh so the adapter's per-task cost is gated.
func BenchmarkConcurrentMIS(b *testing.B) {
	r := rng.New(1)
	g, err := graph.GNM(100_000, 1_000_000, r)
	if err != nil {
		b.Fatal(err)
	}
	labels := core.RandomLabels(g.NumVertices(), r)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mq := multiqueue.NewConcurrent(4*workers, g.NumVertices(), uint64(i)+1)
				inSet, res, err := RunConcurrent(g, labels, mq, core.Reinsert, core.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(inSet) != g.NumVertices() || res.Processed == 0 {
					b.Fatal("implausible result")
				}
			}
		})
	}
}
