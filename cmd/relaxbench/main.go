// Command relaxbench runs the paper's concurrent experiments (Figure 2):
// for a graph of a chosen density class it sweeps worker counts and
// executor batch sizes and reports the wall-clock time, throughput and
// speedup of
//
//   - the relaxed framework on a concurrent MultiQueue,
//   - the exact framework on a fetch-and-add FIFO with predecessor backoff,
//   - a coarse-locked k-bounded scheduler,
//
// against the optimized sequential baseline. A Figure 2 panel is the sweep
// at one batch size — the executor default unless -batches says otherwise.
// Besides the static framework workloads (mis, coloring, matching) it
// benchmarks the dynamic-priority workloads (sssp — optionally
// Δ-stepping-bucketed via -delta — kcore, and pagerank — residual tolerance
// via -tol), which run on the dynamic engine and report stale pops /
// re-evaluations / re-pushes as wasted work. All workloads dispatch through
// the internal/workload registry, so -algo accepts any registered name.
//
// -json writes the machine-readable reports that BENCH_concurrent.json
// tracks; -append merges new (class, algorithm) reports into the existing
// file instead of overwriting it.
//
// Examples:
//
//	relaxbench                       # all three classes, default thread sweep
//	relaxbench -class sparse -trials 5
//	relaxbench -algo sssp -class grid -delta 16
//	relaxbench -vertices 100000 -edges 1000000 -threads 1,2,4
//	relaxbench -batches 1,16,64 -json sweep.json
//	relaxbench -algo pagerank -class hundredk,powerlaw -tol 1e-6 -json BENCH_concurrent.json -append
//	relaxbench -class sparse -cpuprofile cpu.pprof -memprofile mem.pprof
//
// `make sweep` regenerates BENCH_concurrent.json. -cpuprofile and
// -memprofile write pprof profiles covering the whole run; `make profile`
// wraps this with a rendered top-N report. Profile paths are validated
// before any benchmark work starts.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"relaxsched/internal/bench"
	"relaxsched/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "relaxbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("relaxbench", flag.ContinueOnError)
	var (
		algoCSV     = fs.String("algo", "mis", "comma-separated workloads: mis (Figure 2), coloring, matching, sssp, kcore, pagerank")
		className   = fs.String("class", "", "comma-separated graph classes: sparse, smalldense, largedense, hundredk, million, powerlaw, grid (default: the three Figure 2 classes)")
		vertices    = fs.Int("vertices", 0, "custom vertex count (overrides -class)")
		edges       = fs.Int64("edges", 0, "custom edge count (with -vertices)")
		threadsCSV  = fs.String("threads", "", "comma-separated worker counts (default: powers of two up to GOMAXPROCS)")
		trials      = fs.Int("trials", 3, "trials per data point")
		queueFactor = fs.Int("queue-factor", 4, "MultiQueue sub-queues per thread")
		delta       = fs.Uint64("delta", 1, "Δ-stepping bucket width for sssp priorities (1 = exact distances)")
		tol         = fs.Float64("tol", 0, "pagerank target L1 error (0 = workload default 1e-9)")
		seed        = fs.Uint64("seed", 1, "random seed")
		verify      = fs.Bool("verify", true, "check every parallel result against the sequential oracle")
		batchesCSV  = fs.String("batches", "", "comma-separated executor batch sizes (default: the executor default)")
		jsonPath    = fs.String("json", "", "also write the reports as a JSON array to this file (the layout of BENCH_concurrent.json)")
		appendJSON  = fs.Bool("append", false, "merge the reports into the existing -json file, replacing matching (class, algorithm) entries")
		cpuProfile  = fs.String("cpuprofile", "", "write a pprof CPU profile covering the whole run to this file")
		memProfile  = fs.String("memprofile", "", "write a pprof heap profile, snapshotted after the run, to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *vertices < 0 {
		return fmt.Errorf("invalid vertex count %d: must be positive", *vertices)
	}
	if *vertices > 0 && *edges < 0 {
		return fmt.Errorf("invalid edge count %d: must be non-negative", *edges)
	}
	if *trials < 1 {
		return fmt.Errorf("invalid trial count %d: must be at least 1", *trials)
	}
	if *queueFactor < 1 {
		return fmt.Errorf("invalid queue factor %d: must be at least 1", *queueFactor)
	}

	var algos []string
	for _, name := range strings.Split(*algoCSV, ",") {
		name = strings.TrimSpace(name)
		if _, err := workload.Lookup(name); err != nil {
			return fmt.Errorf("-algo: %w", err)
		}
		algos = append(algos, name)
	}
	if *delta < 1 || *delta > math.MaxUint32 {
		return fmt.Errorf("invalid delta %d: must be in [1, 2^32)", *delta)
	}
	if *delta != 1 && !slices.Contains(algos, "sssp") {
		return fmt.Errorf("-delta only applies to -algo sssp")
	}
	if *tol < 0 {
		return fmt.Errorf("invalid tolerance %v: -tol must be non-negative (0 = workload default)", *tol)
	}
	if *tol != 0 && !slices.Contains(algos, "pagerank") {
		return fmt.Errorf("-tol only applies to -algo pagerank")
	}

	threads, err := parseInts(*threadsCSV, "thread count")
	if err != nil {
		return err
	}
	batches, err := parseInts(*batchesCSV, "batch size")
	if err != nil {
		return err
	}

	var classes []bench.Class
	switch {
	case *vertices > 0:
		classes = []bench.Class{{Name: "custom", Vertices: *vertices, Edges: *edges}}
	case *className != "":
		for _, name := range strings.Split(*className, ",") {
			c, err := bench.ClassByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			classes = append(classes, c)
		}
	default:
		classes = bench.DefaultClasses()
	}

	if *appendJSON && *jsonPath == "" {
		return fmt.Errorf("-append requires -json")
	}
	if *cpuProfile != "" && *cpuProfile == *memProfile {
		return fmt.Errorf("-cpuprofile and -memprofile must be distinct files")
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()

	cfg := bench.ScalingConfig{
		Workers:     threads,
		BatchSizes:  batches,
		Trials:      *trials,
		QueueFactor: *queueFactor,
		Delta:       uint32(*delta),
		Tolerance:   *tol,
		Seed:        *seed,
		Verify:      *verify,
	}
	reports := make([]bench.ScalingReport, 0, len(classes)*len(algos))
	for _, class := range classes {
		for _, algo := range algos {
			cfg.Class = class
			cfg.Algorithm = algo
			report, err := bench.RunScaling(cfg)
			if err != nil {
				return fmt.Errorf("class %s algo %s: %w", class.Name, algo, err)
			}
			fmt.Fprint(out, report.Format())
			fmt.Fprint(out, "best throughput:")
			for i, name := range report.Schedulers() {
				if i > 0 {
					fmt.Fprint(out, ",")
				}
				fmt.Fprintf(out, " %s %.0f tasks/s", name, report.BestThroughput(name))
			}
			fmt.Fprint(out, "\n\n")
			reports = append(reports, report)
		}
	}
	if *jsonPath == "" {
		return nil
	}
	return writeReports(out, *jsonPath, *appendJSON, reports)
}

// writeReports writes the reports as one JSON array to path, merging them
// into the existing file when doAppend is set.
func writeReports(out io.Writer, path string, doAppend bool, reports []bench.ScalingReport) error {
	if doAppend {
		existing, err := bench.ReadScalingReportsFile(path)
		switch {
		case err == nil:
			reports = mergeReports(existing, reports)
		case errors.Is(err, fs.ErrNotExist):
			// No existing file: -append degenerates to a plain write.
		default:
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	if err := bench.WriteScalingReports(f, reports); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}

// mergeReports overlays fresh sweep reports onto an existing report list:
// entries with the same (class, algorithm) key are replaced in place, new
// keys are appended — so re-running one algorithm's sweep never discards the
// other tracked entries in BENCH_concurrent.json.
func mergeReports(existing, fresh []bench.ScalingReport) []bench.ScalingReport {
	out := append([]bench.ScalingReport(nil), existing...)
	index := make(map[string]int, len(out))
	for i, rep := range out {
		index[rep.Class+"/"+rep.Algorithm] = i
	}
	for _, rep := range fresh {
		key := rep.Class + "/" + rep.Algorithm
		if i, ok := index[key]; ok {
			out[i] = rep
		} else {
			index[key] = len(out)
			out = append(out, rep)
		}
	}
	return out
}

func parseInts(csv, what string) ([]int, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	parts := strings.Split(csv, ",")
	out := make([]int, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("invalid %s %q", what, part)
		}
		out = append(out, v)
	}
	return out, nil
}
