package workload

import (
	"fmt"

	"relaxsched/internal/algos/sssp"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/sched"
)

func init() {
	Register(Descriptor{
		Name:       "sssp",
		Kind:       Dynamic,
		Brief:      "single-source shortest paths (optional Δ-stepping bucketing)",
		Input:      "undirected graph + random edge weights in [1, 100]",
		WastedWork: "stale pops",
		New:        newSSSP,
	})
}

// weightSeedSalt keeps the derived edge-weight stream independent of the
// other seed consumers (it predates the registry; keeping it preserves the
// bench trajectory).
const weightSeedSalt = 0x9e3779b97f4a7c15

// FirstNonIsolated returns the lowest-numbered vertex with at least one
// neighbor (0 for an empty or edgeless graph) — a deterministic
// shortest-path source that is never trivially unreachable from everything.
func FirstNonIsolated(g *graph.Graph) int {
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(v) > 0 {
			return v
		}
	}
	return 0
}

func ssspOutput(dist []uint32) Output {
	reached := 0
	for _, d := range dist {
		if d != sssp.Unreachable {
			reached++
		}
	}
	return &vecOutput[[]uint32]{
		data:        dist,
		fingerprint: FingerprintInts(dist),
		summary:     fmt.Sprintf("reached: %d", reached),
	}
}

func newSSSP(g *graph.Graph, p Params) (Instance, error) {
	delta := p.Delta
	if delta == 0 {
		delta = 1
	}
	w, err := graph.RandomWeights(g, 100, p.Seed^weightSeedSalt)
	if err != nil {
		return nil, fmt.Errorf("workload: generating sssp weights: %w", err)
	}
	src := p.Source
	if src < 0 {
		src = FirstNonIsolated(g)
	}
	if n := g.NumVertices(); n > 0 && src >= n {
		return nil, fmt.Errorf("workload: sssp source %d out of range [0,%d)", src, n)
	}
	ssspCost := func(st sssp.Stats) Cost {
		return Cost{Pops: st.Pops, StalePops: st.StalePops, Wasted: st.StalePops, EmptyPolls: st.EmptyPolls}
	}
	return &dynamicInstance{
		numTasks: g.NumVertices(),
		sequential: func() Output {
			dist, err := sssp.Dijkstra(g, w, src)
			if err != nil {
				panic(err) // src validated above
			}
			return ssspOutput(dist)
		},
		relaxed: func(s sched.Scheduler) (Output, Cost, error) {
			dist, st, err := sssp.RunRelaxedDelta(g, w, src, s, delta)
			if err != nil {
				return nil, Cost{}, err
			}
			return ssspOutput(dist), ssspCost(st), nil
		},
		concurrent: func(s sched.Concurrent, opts core.Options) (Output, Cost, error) {
			dist, st, err := sssp.RunConcurrentDelta(g, w, src, s, delta, opts)
			if err != nil {
				return nil, Cost{}, err
			}
			return ssspOutput(dist), ssspCost(st), nil
		},
		verify: func(out Output) error {
			return sssp.Verify(g, w, src, out.(*vecOutput[[]uint32]).data)
		},
	}, nil
}
