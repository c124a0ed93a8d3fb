package workload

import (
	"fmt"

	"relaxsched/internal/algos/coloring"
	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
)

func init() {
	Register(Descriptor{
		Name:       "coloring",
		Kind:       Static,
		Brief:      "greedy graph coloring (first free color in priority order)",
		Input:      "undirected graph + random priority permutation",
		WastedWork: "extra iterations",
		New:        newColoring,
	})
}

func coloringOutput(colors []int32) Output {
	return &vecOutput[[]int32]{
		data:        colors,
		fingerprint: FingerprintInts(colors),
		summary:     fmt.Sprintf("colors used: %d", coloring.NumColors(colors)),
	}
}

// newColoring orients g by the priority permutation once, here: the
// problem's tasks are priorities, so the executors get the identity
// permutation, and only verify reads the original graph and labels.
func newColoring(g *graph.Graph, p Params) (Instance, error) {
	labels := core.RandomLabels(g.NumVertices(), rng.New(p.Seed))
	problem, err := coloring.New(g, labels)
	if err != nil {
		return nil, err
	}
	return &staticInstance{
		labels:  core.IdentityLabels(g.NumVertices()),
		problem: problem,
		sequential: func() Output {
			return coloringOutput(problem.Sequential())
		},
		output: func(inst core.Instance) Output {
			return coloringOutput(inst.(*coloring.Instance).Colors())
		},
		verify: func(out Output) error {
			return coloring.Verify(g, labels, out.(*vecOutput[[]int32]).data)
		},
	}, nil
}
