package workload

import (
	"fmt"

	"relaxsched/internal/algos/pagerank"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/sched"
)

func init() {
	Register(Descriptor{
		Name:       "pagerank",
		Kind:       Dynamic,
		Brief:      "residual-push PageRank (priority = pending residual mass)",
		Input:      "undirected graph (dangling vertices self-loop)",
		WastedWork: "stale pops + re-pushes",
		New:        newPageRank,
	})
}

func pagerankOutput(ranks []float64) Output {
	// Approximate output: no fingerprint — concurrent executions sum
	// residuals in nondeterministic order, so runs differ in the low bits
	// and comparisons go through the L1 bound in matches instead.
	return &vecOutput[[]float64]{
		data:    ranks,
		summary: fmt.Sprintf("rank mass: %.9f", pagerank.Sum(ranks)),
	}
}

func newPageRank(g *graph.Graph, p Params) (Instance, error) {
	opts := pagerank.Options{Damping: p.Damping, Tolerance: p.Tolerance}
	if opts.Damping == 0 {
		opts.Damping = pagerank.DefaultDamping
	}
	if opts.Tolerance == 0 {
		opts.Tolerance = pagerank.DefaultTolerance
	}
	// Reject invalid knobs at binding time: RunSequential has no error path,
	// so a bad damping or tolerance must not survive past New.
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	prCost := func(st pagerank.Stats) Cost {
		return Cost{Pops: st.Pops, StalePops: st.StalePops, Wasted: st.Wasted(), EmptyPolls: st.EmptyPolls}
	}
	return &dynamicInstance{
		numTasks: g.NumVertices(),
		sequential: func() Output {
			ranks, err := pagerank.PowerIteration(g, opts)
			if err != nil {
				panic(err) // unreachable: opts validated at binding time
			}
			return pagerankOutput(ranks)
		},
		relaxed: func(s sched.Scheduler) (Output, Cost, error) {
			ranks, st, err := pagerank.RunRelaxed(g, s, opts)
			if err != nil {
				return nil, Cost{}, err
			}
			return pagerankOutput(ranks), prCost(st), nil
		},
		concurrent: func(s sched.Concurrent, dopts core.Options) (Output, Cost, error) {
			ranks, st, err := pagerank.RunConcurrent(g, s, dopts, opts)
			if err != nil {
				return nil, Cost{}, err
			}
			return pagerankOutput(ranks), prCost(st), nil
		},
		verify: func(out Output) error {
			return pagerank.Verify(g, out.(*vecOutput[[]float64]).data, opts)
		},
		// Both outputs carry the push guarantee ‖π − p‖₁ ≤ Tolerance (and
		// the power-iteration reference is at least as accurate), so any two
		// results of this instance lie within 2·Tolerance of each other.
		matches: func(reference, got Output) error {
			a := reference.(*vecOutput[[]float64]).data
			b := got.(*vecOutput[[]float64]).data
			if len(a) != len(b) {
				return fmt.Errorf("workload: pagerank outputs have %d and %d ranks", len(a), len(b))
			}
			if d := pagerank.L1(a, b); d > 2*opts.Tolerance {
				return fmt.Errorf("workload: pagerank outputs differ by %v in L1, beyond the %v tolerance budget", d, 2*opts.Tolerance)
			}
			return nil
		},
	}, nil
}
