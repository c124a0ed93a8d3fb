package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of -compare for one workload × end-to-end metric.
const (
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
)

// readRuns loads the untraced records of an -out file, grouped by
// workload and metric: one value per run.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if rec.Traced {
			continue
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], v)
		}
	}
	return runs, sc.Err()
}

// judge compares two sets of runs of one metric. change is b's median
// relative to a's, signed so that positive is worse.
func judge(d metricDef, a, b []float64) (change float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		change = (mb - ma) / ma
	}
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return change, verdictUnresolved
	case change > d.Bound:
		return change, verdictWorse
	}
	return change, verdictWithin
}

// compareFiles prints, per workload × end-to-end metric the workload
// measures, both medians, the relative change, the bound and a verdict.
// It returns non-zero when any row is worse.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRuns(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s holds no untraced record", pathA)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readRuns(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	worse := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian a\tmedian b\tchange\tbound\tspread a\tspread b\truns\tverdict")
	for _, w := range workloadDefs {
		for _, d := range endToEnd {
			va, vb := a[w.Name][d.Name], b[w.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			change, verdict := judge(d, va, vb)
			if verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%d/%d\t%s\n",
				w.Name, d.Name, d.Unit, median(va), median(vb), 100*change, 100*d.Bound,
				100*spread(va), 100*spread(vb), len(va), len(vb), verdict)
		}
	}
	tw.Flush()
	fmt.Fprintln(stdout, "change is signed so that positive is worse; bounds are BENCHMARK.json's")
	if worse > 0 {
		return 1
	}
	return 0
}
