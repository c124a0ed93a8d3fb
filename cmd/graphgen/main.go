// Command graphgen generates random graphs in the library's edge-list format
// and prints basic statistics, so experiment inputs can be created once and
// reused across tools (cmd/relaxrun reads the same format).
//
// Examples:
//
//	graphgen -model gnm -vertices 10000 -edges 100000 -out graph.txt
//	graphgen -model gnp -vertices 100000 -p 0.0002 -out sparse.txt
//	graphgen -model rmat -scale 14 -edge-factor 8 -out rmat.txt
//	graphgen -model grid -rows 200 -cols 300 -out grid.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	var (
		model      = fs.String("model", "gnm", "graph model: gnm, gnp, powerlaw, smallworld, rmat, grid, complete, path, cycle, star")
		vertices   = fs.Int("vertices", 1000, "number of vertices (gnm, gnp, powerlaw, smallworld, complete, path, cycle, star)")
		edges      = fs.Int64("edges", 10000, "number of edges (gnm)")
		p          = fs.Float64("p", 0.01, "edge probability (gnp)")
		avgDeg     = fs.Float64("avg-degree", 8, "average degree (powerlaw)")
		exponent   = fs.Float64("exponent", 2.5, "degree-distribution exponent (powerlaw)")
		latticeK   = fs.Int("k", 6, "lattice degree, even (smallworld)")
		beta       = fs.Float64("beta", 0.1, "rewiring probability (smallworld)")
		scale      = fs.Int("scale", 12, "log2 of the vertex count (rmat)")
		edgeFactor = fs.Int("edge-factor", 8, "edges per vertex (rmat)")
		rows       = fs.Int("rows", 100, "grid rows")
		cols       = fs.Int("cols", 100, "grid columns")
		seed       = fs.Uint64("seed", 1, "random seed")
		outPath    = fs.String("out", "", "output file (default: stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	r := rng.New(*seed)
	var g *graph.Graph
	switch *model {
	case "gnm":
		g, err = graph.GNM(*vertices, *edges, r)
	case "gnp":
		g, err = graph.ParallelGNP(*vertices, *p, runtime.GOMAXPROCS(0), r)
	case "powerlaw":
		g, err = graph.PowerLaw(*vertices, *avgDeg, *exponent, runtime.GOMAXPROCS(0), r)
	case "smallworld":
		g, err = graph.ParallelWattsStrogatz(*vertices, *latticeK, *beta, runtime.GOMAXPROCS(0), r)
	case "rmat":
		g, err = graph.RMAT(*scale, *edgeFactor, 0.57, 0.19, 0.19, r)
	case "grid":
		g = graph.Grid(*rows, *cols)
	case "complete":
		g = graph.Complete(*vertices)
	case "path":
		g = graph.Path(*vertices)
	case "cycle":
		g = graph.Cycle(*vertices)
	case "star":
		g = graph.Star(*vertices)
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
	if err != nil {
		return err
	}

	out := stdout
	if *outPath != "" {
		f, createErr := os.Create(*outPath)
		if createErr != nil {
			return fmt.Errorf("creating %s: %w", *outPath, createErr)
		}
		defer func() {
			if closeErr := f.Close(); closeErr != nil && err == nil {
				err = closeErr
			}
		}()
		out = f
	}
	if err := graph.WriteEdgeList(out, g); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %s: %s (max degree %d)\n", *model, g.String(), g.MaxDegree())
	return nil
}
