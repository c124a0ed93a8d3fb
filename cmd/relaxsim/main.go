// Command relaxsim runs the paper's sequential simulations: it measures the
// number of extra scheduler iterations caused by relaxation when executing an
// iterative algorithm through the framework, checking every trial's output
// against the sequential algorithm's.
//
// The default invocation reproduces Table 1 of the paper (greedy MIS with a
// MultiQueue-model scheduler over the |V| x |E| x k grid):
//
//	relaxsim -table1
//
// Individual cells and sweeps for the other algorithms (used to validate
// Theorems 1 and 2) are available through flags:
//
//	relaxsim -algo coloring -vertices 10000 -edges 30000 -k 32 -trials 5
//	relaxsim -algo mis -sweep-n "1000,10000,100000" -edges 30000 -k 16
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"relaxsched/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "relaxsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("relaxsim", flag.ContinueOnError)
	var (
		table1    = fs.Bool("table1", false, "reproduce the paper's Table 1 grid (MIS, MultiQueue)")
		algo      = fs.String("algo", "mis", "algorithm: a static registry workload (mis, matching, coloring), listcontract or shuffle")
		schedKind = fs.String("sched", "multiqueue", "scheduler family: multiqueue, topk, spraylist, kbounded")
		vertices  = fs.Int("vertices", 1000, "number of vertices (or list nodes / shuffle iterations)")
		edges     = fs.Int64("edges", 10000, "number of edges (ignored by listcontract and shuffle)")
		k         = fs.Int("k", 16, "relaxation factor")
		ks        = fs.String("sweep-k", "", "comma-separated relaxation factors to sweep (overrides -k)")
		sweepN    = fs.String("sweep-n", "", "comma-separated vertex counts to sweep (overrides -vertices)")
		trials    = fs.Int("trials", 2, "trials per cell")
		seed      = fs.Uint64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trials < 1 {
		return fmt.Errorf("invalid trial count %d: -trials must be at least 1", *trials)
	}
	if *k < 1 {
		return fmt.Errorf("invalid relaxation factor %d: -k must be at least 1", *k)
	}

	if *table1 {
		results, err := sim.Sweep("mis", sim.SchedMultiQueue, sim.Table1Sizes(), sim.Table1Ks(), *trials, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Table 1 reproduction: mean extra iterations for relaxed MIS (MultiQueue model); every trial verified against sequential greedy MIS")
		fmt.Fprint(out, sim.FormatTable(results))
		return nil
	}

	kList, err := parseInts(*ks, "-sweep-k", []int{*k})
	if err != nil {
		return err
	}
	nList, err := parseInts(*sweepN, "-sweep-n", []int{*vertices})
	if err != nil {
		return err
	}

	sizes := make([]sim.Size, 0, len(nList))
	for _, n := range nList {
		sizes = append(sizes, sim.Size{Vertices: n, Edges: *edges})
	}
	results, err := sim.Sweep(*algo, sim.Scheduler(*schedKind), sizes, kList, *trials, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "algorithm=%s scheduler=%s trials=%d (each verified): mean extra iterations\n", *algo, *schedKind, *trials)
	fmt.Fprint(out, sim.FormatTable(results))
	fmt.Fprintln(out)
	for _, cell := range results {
		fmt.Fprintf(out, "n=%d m=%d k=%d tasks=%d extra=%s\n",
			cell.Config.Vertices, cell.Config.Edges, cell.Config.K, cell.Tasks, cell.ExtraIterations.String())
	}
	return nil
}

// parseInts parses a comma-separated list of positive integers given to the
// named flag, returning fallback when the list is empty.
func parseInts(csv, flagName string, fallback []int) ([]int, error) {
	if strings.TrimSpace(csv) == "" {
		return fallback, nil
	}
	parts := strings.Split(csv, ",")
	out := make([]int, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("invalid %s value %q: must be a positive integer", flagName, part)
		}
		out = append(out, v)
	}
	return out, nil
}
