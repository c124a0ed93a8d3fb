package service

import (
	"fmt"
	"math"
	"runtime"

	"relaxsched/internal/api"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
)

// graphSeedSalt decorrelates graph generation from the job's own seed
// consumers (priority permutations, edge weights), mirroring the salts the
// bench harness uses.
const graphSeedSalt = 0xbe9cbe9cbe9cbe9c

// buildGraph generates the graph a spec describes. The spec itself (and
// its validation and cache key) is a wire type in internal/api; the
// generator binding lives here because only the executing node ever
// builds — the gateway routes on GraphSpec.Key without touching a
// generator. Generation always uses every available core (as the bench
// harness does): the builder's parallelism is an input-preparation
// concern, independent of any job's worker count.
func buildGraph(s api.GraphSpec) (*graph.Graph, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sp := s.Normalized()
	r := rng.New(sp.Seed ^ graphSeedSalt)
	workers := runtime.GOMAXPROCS(0)
	switch sp.Model {
	case api.ModelGNP:
		p := 0.0
		if sp.N > 1 {
			p = float64(2*sp.Edges) / (float64(sp.N) * float64(sp.N-1))
		}
		return graph.ParallelGNP(sp.N, p, workers, r)
	case api.ModelPowerLaw:
		avgDeg := 2 * float64(sp.Edges) / float64(sp.N)
		return graph.PowerLaw(sp.N, avgDeg, sp.Exponent, workers, r)
	case api.ModelGrid:
		rows := int(math.Sqrt(float64(sp.N)))
		for rows > 1 && sp.N%rows != 0 {
			rows--
		}
		if rows < 1 {
			rows = 1
		}
		return graph.Grid(rows, sp.N/rows), nil
	default:
		return nil, fmt.Errorf("unknown graph model %q", sp.Model)
	}
}
