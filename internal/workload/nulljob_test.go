package workload

import (
	"runtime"
	"testing"

	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
)

// nullJobGraph is the input of the job service's benchmark job: G(n, p)
// with n = 1000 and 5000 expected edges.
func nullJobGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	const n, m = 1000, 5000
	g, err := graph.ParallelGNP(n, float64(2*m)/(n*(n-1)), runtime.GOMAXPROCS(0), rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// nullJob is the job the service benchmark submits, minus the service: a
// sequential MIS, bound to the graph and run once.
func nullJob(tb testing.TB, g *graph.Graph, seed uint64) Output {
	d, err := Lookup("mis")
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := d.New(g, Params{Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	return inst.RunSequential()
}

// nullJobMaxAllocs is the allocation count of one null job. The job's cost
// is mostly fixed per-job work, so a change that adds set-up to every bind
// (orienting the graph, say) shows here first; raising the ceiling is a
// decision to make the service's every job dearer.
const nullJobMaxAllocs = 12

// TestNullJobAllocs holds the service benchmark's job to its allocation
// ceiling.
func TestNullJobAllocs(t *testing.T) {
	g := nullJobGraph(t)
	if avg := testing.AllocsPerRun(20, func() { _ = nullJob(t, g, 7) }); avg > nullJobMaxAllocs {
		t.Fatalf("null job allocated %.1f times, ceiling %d", avg, nullJobMaxAllocs)
	}
}

// BenchmarkNullJob measures the service benchmark's job without the
// service: Lookup("mis").New and RunSequential on G(1000, 5000).
func BenchmarkNullJob(b *testing.B) {
	g := nullJobGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nullJob(b, g, uint64(i))
	}
}
