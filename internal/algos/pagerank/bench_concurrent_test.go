package pagerank

import (
	"fmt"
	"testing"

	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
)

// BenchmarkConcurrentPageRank times the residual-push executor on a
// 20k-vertex G(n, m) instance across worker counts at the tracked tolerance
// 1e-6 — the pagerank counterpart of sssp's BenchmarkConcurrentSSSP and a
// gated benchmark in scripts/benchdiff.sh. The instance is deliberately
// smaller than the sweep's hundredk class so an old-vs-new diff run stays
// tractable; the hot path it exercises is the same: the concurrent Expand
// residual scan plus the pooled executor scratch.
func BenchmarkConcurrentPageRank(b *testing.B) {
	r := rng.New(1)
	g, err := graph.GNM(20_000, 200_000, r)
	if err != nil {
		b.Fatal(err)
	}
	opts := Defaults()
	opts.Tolerance = 1e-6
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mq := multiqueue.NewConcurrent(4*workers, g.NumVertices(), uint64(i)+1)
				ranks, st, err := RunConcurrent(g, mq, core.Options{Workers: workers}, opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(ranks) != g.NumVertices() || st.Pops == 0 {
					b.Fatal("implausible result")
				}
			}
		})
	}
}
