package workload

import (
	"fmt"

	"relaxsched/internal/algos/kcore"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/sched"
)

func init() {
	Register(Descriptor{
		Name:       "kcore",
		Kind:       Dynamic,
		Brief:      "k-core decomposition (order-independent h-index fixpoint)",
		Input:      "undirected graph",
		WastedWork: "extra re-evaluations",
		New:        newKCore,
	})
}

func kcoreOutput(cores []uint32) Output {
	return &vecOutput[[]uint32]{
		data:        cores,
		fingerprint: FingerprintInts(cores),
		summary:     fmt.Sprintf("degeneracy: %d", kcore.Degeneracy(cores)),
	}
}

func newKCore(g *graph.Graph, p Params) (Instance, error) {
	n := g.NumVertices()
	// The dirty-flag dedup keeps stale pops structurally zero; waste appears
	// as re-evaluations beyond the initial one per vertex.
	kcoreCost := func(st kcore.Stats) Cost {
		wasted := st.Pops - int64(n)
		if wasted < 0 {
			wasted = 0
		}
		return Cost{Pops: st.Pops, StalePops: st.StalePops, Wasted: wasted, EmptyPolls: st.EmptyPolls}
	}
	return &dynamicInstance{
		numTasks: n,
		sequential: func() Output {
			return kcoreOutput(kcore.Sequential(g))
		},
		relaxed: func(s sched.Scheduler) (Output, Cost, error) {
			cores, st, err := kcore.RunRelaxed(g, s)
			if err != nil {
				return nil, Cost{}, err
			}
			return kcoreOutput(cores), kcoreCost(st), nil
		},
		concurrent: func(s sched.Concurrent, opts core.Options) (Output, Cost, error) {
			cores, st, err := kcore.RunConcurrent(g, s, opts)
			if err != nil {
				return nil, Cost{}, err
			}
			return kcoreOutput(cores), kcoreCost(st), nil
		},
		verify: func(out Output) error {
			return kcore.Verify(g, out.(*vecOutput[[]uint32]).data)
		},
	}, nil
}
