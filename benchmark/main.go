// Command benchmark is the repository's one measuring instrument: four
// named workloads, eleven end-to-end metrics with regression bounds, and a
// traced pass that attributes the end-to-end numbers to layers. README.md
// in this directory is the glossary; BENCHMARK.json at the repository
// root is the contract a driver runs it by. run.sh builds and runs it:
//
//	bash benchmark/run.sh                       every workload, untraced then traced
//	bash benchmark/run.sh -workload svc-hot     one workload, one pass (the driver's form)
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runWorkload measures one pass of one workload.
func runWorkload(name string, seed uint64, seconds float64, traced bool) (*runResult, error) {
	switch name {
	case wlExecStatic:
		return runExec(name, execStaticConfig(), seed, seconds, traced)
	case wlExecDynamic:
		return runExec(name, execDynamicConfig(), seed, seconds, traced)
	case wlSvcHot:
		return runSvc(svcHotConfig(), seed, seconds, traced)
	case wlSvcFleet:
		return runSvc(svcFleetConfig(), seed, seconds, traced)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload (one pass, chosen by -trace); empty runs every workload, untraced then traced")
	seed := fs.Uint64("seed", 1, "workload seed: equal seeds give byte-identical inputs")
	seconds := fs.Float64("seconds", runSeconds, "measuring time of one pass of one workload")
	traced := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer metrics")
	out := fs.String("out", "", "append one JSON record per pass to this file (the input of -compare)")
	spansOut := fs.String("spans", "", "write the traced pass's spans to this file, one JSON object per line")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare a.jsonl b.jsonl")
	contract := fs.Bool("contract", false, "print BENCHMARK.json as generated from the metric tables and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *contract:
		b, err := contractJSON()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		stdout.Write(b)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() != 0:
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -trace 0 or 1, and no other arguments are taken")
		return 2
	}

	type pass struct {
		workload string
		traced   bool
	}
	var passes []pass
	if *workload != "" {
		passes = []pass{{*workload, *traced == 1}}
	} else {
		for _, w := range workloadDefs {
			passes = append(passes, pass{w.Name, false}, pass{w.Name, true})
		}
	}

	attempted, failed := 0, 0
	var last *runResult
	for _, p := range passes {
		res, err := runWorkload(p.workload, *seed, *seconds, p.traced)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", p.workload, err)
			return 1
		}
		printResult(stdout, res)
		if *out != "" {
			if err := appendRecord(*out, res.record()); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		if *spansOut != "" && p.traced {
			path := *spansOut
			if *workload == "" {
				path += "." + p.workload
			}
			if err := writeSpanFile(path, res.spans); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		attempted += res.Attempted
		failed += res.Failed
		last = res
	}

	// The last line of standard output is the machine-readable result.
	var line any
	if *workload != "" {
		defs, e2e := endToEnd, true
		if last.Traced {
			defs, e2e = perLayer, false
		}
		line = struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{failed == 0, attempted, failed, contractMetrics(last, defs, e2e)}
	} else {
		line = struct {
			Correct   bool    `json:"correct"`
			Attempted int     `json:"attempted"`
			Failed    int     `json:"failed"`
			Claim     *string `json:"claim"`
		}{failed == 0, attempted, failed, nil}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if failed > 0 {
		return 1
	}
	return 0
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult writes the human-readable account of one pass: every metric
// the workload measured, by name, with its unit, plus operations
// attempted and failed.
func printResult(w io.Writer, r *runResult) {
	pass, defs := "untraced", endToEnd
	if r.Traced {
		pass, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d): %d operations attempted, %d failed\n", r.Workload, pass, r.Seed, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		v, ok := r.Values[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(tw, "   %s\t%.6g\t%s", d.Name, v, d.Unit)
		if s, ok := r.Dists[d.Name]; ok {
			fmt.Fprintf(tw, "\tq1 %.6g  q3 %.6g  n %d", s.Q1, s.Q3, s.N)
			if s.TailP > 0 {
				fmt.Fprintf(tw, "  p%g %.6g", s.TailP, s.Tail)
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	phases := make([]string, 0, len(r.Phases))
	for name := range r.Phases {
		phases = append(phases, name)
	}
	sort.Strings(phases)
	fmt.Fprint(w, "   phases:")
	for _, name := range phases {
		fmt.Fprintf(w, " %s %.2fs", name, r.Phases[name])
	}
	fmt.Fprintln(w)
}
