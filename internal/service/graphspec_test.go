package service

import (
	"strings"
	"testing"

	"relaxsched/internal/api"
)

// Validate and Key canonicalization tests live with the GraphSpec type in
// internal/api; this file covers the service-side builder only.

func TestBuildGraph(t *testing.T) {
	cases := []api.GraphSpec{
		{Model: api.ModelGNP, N: 500, Edges: 2000, Seed: 3},
		{Model: api.ModelPowerLaw, N: 500, Edges: 2000, Seed: 3},
		{Model: api.ModelGrid, N: 400}, // 20x20
	}
	for _, s := range cases {
		g, err := buildGraph(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Key(), err)
		}
		if g.NumVertices() != s.N {
			t.Fatalf("%s: built %d vertices, want %d", s.Key(), g.NumVertices(), s.N)
		}
		if g.NumEdges() == 0 {
			t.Fatalf("%s: built an edgeless graph", s.Key())
		}
	}
	// Same spec, same graph (deterministic generation).
	a, err := buildGraph(api.GraphSpec{N: 300, Edges: 900, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildGraph(api.GraphSpec{N: 300, Edges: 900, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same spec built %d and %d edges", a.NumEdges(), b.NumEdges())
	}
	if _, err := buildGraph(api.GraphSpec{Model: "hypercube", N: 8}); err == nil || !strings.Contains(err.Error(), "unknown graph model") {
		t.Fatalf("bad model build error: %v", err)
	}
}
