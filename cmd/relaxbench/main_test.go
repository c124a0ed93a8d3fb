package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"relaxsched/internal/bench"
)

// readReports parses a JSON report file written by -json.
func readReports(t *testing.T, path string) []bench.ScalingReport {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var reports []bench.ScalingReport
	if err := json.Unmarshal(data, &reports); err != nil {
		t.Fatalf("invalid JSON in %s: %v", path, err)
	}
	return reports
}

func TestRunCustomGraph(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-vertices", "2000", "-edges", "10000", "-threads", "1,2", "-trials", "1", "-seed", "5",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"custom", "relaxed-multiqueue", "exact-faa", "seq=", "best throughput"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "wrote ") {
		t.Fatalf("a run without -json wrote a file:\n%s", got)
	}
}

func TestRunNamedClassScaledByThreads(t *testing.T) {
	if testing.Short() {
		t.Skip("full class benchmark is slow")
	}
	var out bytes.Buffer
	err := run([]string{"-class", "smalldense", "-threads", "1", "-trials", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "smalldense") {
		t.Fatalf("output missing class name:\n%s", out.String())
	}
}

func TestRunAlternativeAlgorithms(t *testing.T) {
	for _, algo := range []string{"coloring", "matching"} {
		var out bytes.Buffer
		err := run([]string{
			"-algo", algo, "-vertices", "800", "-edges", "3000", "-threads", "1", "-trials", "1",
		}, &out)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(out.String(), "best throughput") {
			t.Fatalf("%s: missing summary line", algo)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-algo", "nope", "-vertices", "100", "-edges", "200", "-threads", "1", "-trials", "1"}, &out); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"unknown class", []string{"-class", "galactic"}},
		{"bad threads", []string{"-threads", "1,zero", "-vertices", "100", "-edges", "200"}},
		{"negative threads", []string{"-threads", "-2", "-vertices", "100", "-edges", "200"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
		})
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2, 8", "thread count")
	if err != nil || len(got) != 3 || got[2] != 8 {
		t.Fatalf("parseInts = %v, %v", got, err)
	}
	got, err = parseInts("", "thread count")
	if err != nil || got != nil {
		t.Fatalf("empty input should yield nil, got %v, %v", got, err)
	}
	if _, err := parseInts("0", "thread count"); err == nil {
		t.Fatal("zero thread count accepted")
	}
	if _, err := parseInts("nope", "batch size"); err == nil {
		t.Fatal("non-numeric batch size accepted")
	}
}

func TestRunSweepWritesJSON(t *testing.T) {
	dir := t.TempDir()
	jsonPath := dir + "/BENCH_concurrent.json"
	var out bytes.Buffer
	err := run([]string{
		"-vertices", "1500", "-edges", "6000", "-threads", "1,2",
		"-batches", "1,16", "-trials", "1", "-json", jsonPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	reports := readReports(t, jsonPath)
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	rep := reports[0]
	// 3 schedulers x 2 worker counts x 2 batch sizes.
	if len(rep.Points) != 12 {
		t.Fatalf("got %d sweep points, want 12", len(rep.Points))
	}
	for _, pt := range rep.Points {
		if pt.ThroughputTasksPerSec <= 0 {
			t.Fatalf("non-positive throughput in point %+v", pt)
		}
	}
	if !strings.Contains(out.String(), "best throughput") {
		t.Fatalf("missing sweep summary:\n%s", out.String())
	}
}

func TestRunRejectsInvalidFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		// want, when set, must appear in the error: the flag at fault.
		want string
	}{
		{"negative vertices", []string{"-vertices", "-5"}, ""},
		{"negative edges", []string{"-vertices", "100", "-edges", "-1"}, ""},
		{"zero trials", []string{"-vertices", "100", "-edges", "200", "-trials", "0"}, ""},
		{"negative trials", []string{"-vertices", "100", "-edges", "200", "-trials", "-2"}, ""},
		{"zero queue factor", []string{"-vertices", "100", "-edges", "200", "-queue-factor", "0"}, ""},
		{"zero batch in list", []string{"-vertices", "100", "-edges", "200", "-batches", "0,16"}, "invalid batch size"},
		{"bad thread list", []string{"-vertices", "100", "-edges", "200", "-threads", "1,0"}, ""},
		{"unknown class", []string{"-class", "galaxy"}, ""},
		{"unknown algo in list", []string{"-algo", "mis,galactic", "-vertices", "100", "-edges", "200"}, "-algo"},
		{"trailing comma in algo", []string{"-algo", "kcore,", "-vertices", "100", "-edges", "200", "-threads", "1", "-trials", "1"}, "-algo"},
		{"empty algo", []string{"-algo", "", "-vertices", "100", "-edges", "200", "-threads", "1", "-trials", "1"}, "-algo"},
		{"zero delta", []string{"-algo", "sssp", "-vertices", "100", "-edges", "200", "-delta", "0"}, ""},
		{"delta overflows uint32", []string{"-algo", "sssp", "-vertices", "100", "-edges", "200", "-delta", "4294967296"}, ""},
		{"delta without sssp", []string{"-algo", "mis", "-vertices", "100", "-edges", "200", "-delta", "16"}, ""},
		{"negative tol", []string{"-algo", "pagerank", "-vertices", "100", "-edges", "200", "-tol", "-1e-9"}, ""},
		{"tol without pagerank", []string{"-algo", "mis", "-vertices", "100", "-edges", "200", "-tol", "1e-6"}, ""},
		{"append without json", []string{"-vertices", "100", "-edges", "200", "-append"}, "-json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("args %v: error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestRunDynamicAlgorithms(t *testing.T) {
	// The dynamic workloads, including a bucketed sssp; the multi-algo form
	// prints one table per algorithm.
	var out bytes.Buffer
	err := run([]string{
		"-algo", "sssp,kcore", "-vertices", "900", "-edges", "3600",
		"-threads", "1,2", "-trials", "1", "-delta", "8", "-seed", "9",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"algo=sssp", "algo=kcore", "best throughput"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestSweepDynamicAlgorithmsAppend(t *testing.T) {
	dir := t.TempDir()
	jsonPath := dir + "/BENCH.json"
	// First, a MIS sweep creates the file.
	var out bytes.Buffer
	err := run([]string{
		"-vertices", "1200", "-edges", "5000", "-threads", "1",
		"-batches", "16", "-trials", "1", "-json", jsonPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	// Then a dynamic sweep with -append adds sssp and kcore entries without
	// discarding the MIS entry.
	out.Reset()
	err = run([]string{
		"-algo", "sssp,kcore", "-vertices", "1200", "-edges", "5000",
		"-threads", "1", "-batches", "16", "-trials", "1", "-append", "-json", jsonPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	reports := readReports(t, jsonPath)
	if len(reports) != 3 {
		t.Fatalf("got %d reports after append, want 3 (mis + sssp + kcore)", len(reports))
	}
	algos := map[string]bool{}
	for _, rep := range reports {
		algos[rep.Algorithm] = true
	}
	for _, want := range []string{"mis", "sssp", "kcore"} {
		if !algos[want] {
			t.Fatalf("missing %s report after append: %v", want, algos)
		}
	}
	// Re-running the dynamic sweep with -append replaces in place instead of
	// duplicating.
	out.Reset()
	err = run([]string{
		"-algo", "kcore", "-vertices", "1200", "-edges", "5000",
		"-threads", "1", "-batches", "16", "-trials", "1", "-append", "-json", jsonPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if reports := readReports(t, jsonPath); len(reports) != 3 {
		t.Fatalf("got %d reports after re-append, want 3", len(reports))
	}
}

func TestSweepClassList(t *testing.T) {
	jsonPath := t.TempDir() + "/sweep.json"
	var out bytes.Buffer
	err := run([]string{
		"-class", "powerlaw", "-threads", "1", "-batches", "16",
		"-trials", "1", "-json", jsonPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	reports := readReports(t, jsonPath)
	if len(reports) != 1 || reports[0].Class != "powerlaw" || reports[0].Model != "powerlaw" {
		t.Fatalf("unexpected reports: %+v", reports)
	}
}

func TestRunPageRank(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-algo", "pagerank", "-vertices", "800", "-edges", "3200",
		"-threads", "1,2", "-trials", "1", "-tol", "1e-6",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "best throughput") {
		t.Fatalf("missing summary line:\n%s", out.String())
	}
}
