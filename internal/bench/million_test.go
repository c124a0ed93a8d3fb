package bench

import (
	"os"
	"runtime"
	"testing"

	"relaxsched/internal/algos/mis"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
)

// TestMillionVertexMISSmoke generates a million-vertex G(n,p) graph with the
// parallel CSR builder and runs a concurrent relaxed MIS over it, verifying
// the result against the sequential oracle. It is the CI smoke proof that
// the CSR layout carries million-vertex workloads end to end (CI runs it
// under the race detector); locally it only runs when
// RELAXSCHED_SMOKE_MILLION is set, so plain `go test ./...` stays fast.
func TestMillionVertexMISSmoke(t *testing.T) {
	if os.Getenv("RELAXSCHED_SMOKE_MILLION") == "" {
		t.Skip("set RELAXSCHED_SMOKE_MILLION=1 to run the million-vertex smoke test")
	}
	const n = 1_000_000
	const m = 2_000_000
	r := rng.New(0x1e6)
	p := float64(2*m) / (float64(n) * float64(n-1))
	g, err := graph.ParallelGNP(n, p, runtime.GOMAXPROCS(0), r)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != n {
		t.Fatalf("generated %d vertices, want %d", g.NumVertices(), n)
	}
	labels := core.RandomLabels(n, r)
	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*workers, n, 0x1e6)
	set, _, err := mis.RunConcurrent(g, labels, mq, core.Reinsert, core.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if err := mis.Verify(g, set); err != nil {
		t.Fatal(err)
	}
	if !mis.Equal(set, mis.Sequential(g, labels)) {
		t.Fatal("concurrent MIS differs from the sequential oracle")
	}
}
