// Command relaxrun runs any workload from the registry — mis, coloring,
// matching, sssp, kcore, pagerank — over a graph in the library's edge-list
// format (see cmd/graphgen), in any of the supported execution modes, and
// reports timing, the workload's output summary, and its wasted-work metric.
// It dispatches through the registry, so a workload added to
// internal/workload is runnable here with no CLI change.
//
// Examples:
//
//	relaxrun -list                                    # table of registered workloads
//	relaxrun -workload pagerank -in graph.txt -mode concurrent -threads 8
//	relaxrun -workload sssp -in graph.txt -mode relaxed -k 32 -delta 16
//	relaxrun -workload coloring -in graph.txt -mode exact -threads 4
//	relaxrun -workload pagerank -in graph.txt -tol 1e-7 -damping 0.9
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"relaxsched/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "relaxrun:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("relaxrun", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list the registered workloads and exit")
		name     = fs.String("workload", "", "workload to run (see -list; required)")
		inPath   = fs.String("in", "", "input edge-list file (required)")
		modeName = fs.String("mode", "sequential", "execution mode: sequential, relaxed, concurrent, exact")
		k        = fs.Int("k", 16, "relaxation factor for -mode relaxed (MultiQueue sub-queues)")
		threads  = fs.Int("threads", 4, "worker goroutines for -mode concurrent/exact")
		batch    = fs.Int("batch", 0, "executor batch size for -mode concurrent/exact (0 = executor default)")
		seed     = fs.Uint64("seed", 1, "random seed for permutations, weights and relaxed schedulers")
		delta    = fs.Uint64("delta", 1, "Δ-stepping bucket width for sssp priorities (1 = exact distances)")
		damping  = fs.Float64("damping", 0, "pagerank damping factor in (0, 1) (unset = 0.85)")
		tol      = fs.Float64("tol", 0, "pagerank target L1 error, must be positive (unset = 1e-9)")
		source   = fs.Int("source", -1, "sssp source vertex (-1 = first non-isolated vertex)")
		verify   = fs.Bool("verify", true, "verify the result against the workload's exactness oracle")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		printWorkloads(out)
		return nil
	}
	if *name == "" {
		return fmt.Errorf("-workload is required (try -list)")
	}
	d, err := workload.Lookup(*name)
	if err != nil {
		return err
	}
	if err := workload.ValidateFlags(*k, *threads, *batch); err != nil {
		return err
	}
	if *delta < 1 || *delta > 1<<32-1 {
		return fmt.Errorf("invalid delta %d: must be in [1, 2^32)", *delta)
	}
	// An explicitly set workload knob must be valid AND apply to the chosen
	// workload (matching relaxbench's "-tol only applies to -algo pagerank"
	// behavior). An unset flag — or an explicit no-op value for -delta and
	// -source — selects the workload default silently; -tol and -damping
	// have no valid no-op value, so setting them at all requires pagerank.
	var flagErr error
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "tol":
			if *tol <= 0 {
				flagErr = fmt.Errorf("invalid tolerance %v: -tol must be positive", *tol)
			} else if *name != "pagerank" {
				flagErr = fmt.Errorf("-tol only applies to -workload pagerank")
			}
		case "damping":
			if !(*damping > 0 && *damping < 1) {
				flagErr = fmt.Errorf("invalid damping %v: must lie in (0, 1)", *damping)
			} else if *name != "pagerank" {
				flagErr = fmt.Errorf("-damping only applies to -workload pagerank")
			}
		}
	})
	if flagErr != nil {
		return flagErr
	}
	if *delta != 1 && *name != "sssp" {
		return fmt.Errorf("-delta only applies to -workload sssp")
	}
	if *source >= 0 && *name != "sssp" {
		return fmt.Errorf("-source only applies to -workload sssp")
	}
	mode, err := workload.ParseMode(*modeName)
	if err != nil {
		return err
	}
	g, err := workload.LoadGraph(*inPath)
	if err != nil {
		return err
	}

	res, err := d.RunMode(g, workload.RunConfig{
		Mode:    mode,
		K:       *k,
		Threads: *threads,
		Batch:   *batch,
	}, workload.Params{
		Seed:      *seed,
		Delta:     uint32(*delta),
		Damping:   *damping,
		Tolerance: *tol,
		Source:    *source,
	})
	if err != nil {
		return err
	}

	if *verify {
		if err := res.Instance.Verify(res.Output); err != nil {
			return fmt.Errorf("result verification failed: %w", err)
		}
	}
	fmt.Fprintf(out, "graph: %s\n", g.String())
	fmt.Fprintf(out, "workload: %s (%s)  mode: %s  time: %v\n", d.Name, d.Kind, mode, res.Elapsed)
	fmt.Fprintf(out, "%s  %s: %d  pops: %d (%d stale)\n",
		res.Output.Summary(), d.WastedWork, res.Cost.Wasted, res.Cost.Pops, res.Cost.StalePops)
	return nil
}

// printWorkloads renders the registry as an aligned table.
func printWorkloads(out io.Writer) {
	fmt.Fprintf(out, "%-10s %-8s %-24s %s\n", "workload", "kind", "wasted work", "description")
	for _, d := range workload.All() {
		fmt.Fprintf(out, "%-10s %-8s %-24s %s\n", d.Name, d.Kind, d.WastedWork, d.Brief)
		fmt.Fprintf(out, "%-10s input: %s\n", "", d.Input)
	}
}
