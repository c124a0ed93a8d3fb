// Command relaxload is the closed-loop load generator for relaxd: N
// concurrent clients each submit a job, poll it to completion, and
// immediately submit the next, until the requested number of jobs has run.
// It prints a throughput/latency summary plus the server-side view (queue
// latency, job rank error, graph-cache hit rate) from /metrics.
//
// Examples:
//
//	relaxload -url http://localhost:8080 -clients 8 -jobs 64
//	relaxload -url http://localhost:8080 -workloads mis,pagerank -mode concurrent -n 100000 -edges 1000000
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"relaxsched/internal/api"
	"relaxsched/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "relaxload:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("relaxload", flag.ContinueOnError)
	var (
		url       = fs.String("url", "", "relaxd base URL, e.g. http://localhost:8080 (required)")
		clients   = fs.Int("clients", 4, "concurrent closed-loop clients")
		jobs      = fs.Int("jobs", 32, "total jobs to run")
		workloads = fs.String("workloads", "", "comma-separated job mix (default: all registry workloads)")
		mode      = fs.String("mode", "concurrent", "execution mode for every job")
		threads   = fs.Int("threads", 2, "per-job worker count for concurrent/exact modes")
		model     = fs.String("graph", api.ModelGNP, "graph model: gnp, powerlaw, grid")
		n         = fs.Int("n", 20_000, "graph vertices")
		edges     = fs.Int64("edges", 80_000, "graph edge target (gnp/powerlaw)")
		exponent  = fs.Float64("exponent", 0, "power-law exponent (0 = default 2.5)")
		graphSeed = fs.Uint64("graph-seed", 1, "graph generator seed (one seed = one cache entry)")
		seeds     = fs.Int("graph-seeds", 1, "cycle jobs over this many consecutive seeds (distinct graph keys; via a gateway, distinct ring positions)")
		spread    = fs.Int("priority-spread", 100, "job priorities cycle over [0, spread)")
		poll      = fs.Duration("poll", 2*time.Millisecond, "status poll interval")
		verify    = fs.Bool("verify", true, "ask each job to run its exactness oracle")
		progress  = fs.Duration("progress", 0, "print a rolling progress line at this interval (0 disables), e.g. -progress 2s")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url == "" {
		return fmt.Errorf("-url is required")
	}
	if *clients < 1 || *jobs < 1 {
		return fmt.Errorf("-clients and -jobs must be at least 1 (got %d, %d)", *clients, *jobs)
	}
	if *spread < 1 {
		return fmt.Errorf("-priority-spread must be at least 1, got %d", *spread)
	}
	if *seeds < 1 {
		return fmt.Errorf("-graph-seeds must be at least 1, got %d", *seeds)
	}
	var mix []string
	if *workloads != "" {
		for _, w := range strings.Split(*workloads, ",") {
			if w = strings.TrimSpace(w); w != "" {
				mix = append(mix, w)
			}
		}
	}

	cfg := service.LoadConfig{
		BaseURL:   strings.TrimRight(*url, "/"),
		Clients:   *clients,
		Jobs:      *jobs,
		Workloads: mix,
		Mode:      *mode,
		Threads:   *threads,
		Graph: api.GraphSpec{
			Model:    *model,
			N:        *n,
			Edges:    *edges,
			Exponent: *exponent,
			Seed:     *graphSeed,
		},
		GraphSeeds:     *seeds,
		PrioritySpread: *spread,
		PollInterval:   *poll,
		Verify:         *verify,
	}
	if *progress > 0 {
		cfg.Progress = out
		cfg.ProgressInterval = *progress
	}
	if err := cfg.Graph.Validate(); err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	fmt.Fprintf(out, "relaxload: %d clients x %d jobs against %s (mode=%s graph=%s)\n",
		*clients, *jobs, cfg.BaseURL, *mode, cfg.Graph.Key())
	res, err := service.RunLoad(ctx, cfg)
	// The report prints even when the run was cut short: the partial
	// summary now carries the accepted-but-never-terminal count, which is
	// the number that matters when the server went away mid-run.
	fmt.Fprint(out, res.Format())
	if err != nil {
		return err
	}
	if res.Unfinished > 0 {
		return fmt.Errorf("%d accepted jobs never reached a terminal state", res.Unfinished)
	}
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d jobs did not finish done", res.Failed, res.Jobs)
	}
	return nil
}
