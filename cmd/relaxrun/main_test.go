package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/workload"
)

// writeTestGraph writes a random G(n,m) graph to a temp file and returns its
// path.
func writeTestGraph(t *testing.T, n int, m int64) string {
	t.Helper()
	g, err := graph.GNM(n, m, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "graph.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := graph.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEveryWorkloadEveryMode(t *testing.T) {
	path := writeTestGraph(t, 500, 2500)
	for _, name := range workload.Names() {
		for _, mode := range []string{"sequential", "relaxed", "concurrent", "exact"} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				var out bytes.Buffer
				err := run([]string{
					"-workload", name, "-in", path, "-mode", mode, "-threads", "2", "-k", "8", "-seed", "3",
				}, &out)
				if err != nil {
					t.Fatal(err)
				}
				got := out.String()
				if !strings.Contains(got, "workload: "+name) || !strings.Contains(got, "mode: "+mode) {
					t.Fatalf("unexpected output:\n%s", got)
				}
			})
		}
	}
}

func TestRunModesAgreeOnSummary(t *testing.T) {
	// Every exact workload — those whose Matches is fingerprint equality,
	// i.e. a non-zero fingerprint — computes the same output in every mode
	// for one seed, so the printed summary (MIS size, degeneracy, ...) must
	// be identical across modes.
	path := writeTestGraph(t, 500, 2500)
	g, err := workload.LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range workload.All() {
		inst, err := d.New(g, workload.Params{Seed: 11, Source: -1})
		if err != nil {
			t.Fatal(err)
		}
		if inst.RunSequential().Fingerprint() == 0 {
			continue // approximate output (pagerank): compared within a tolerance instead
		}
		t.Run(d.Name, func(t *testing.T) {
			var summaries []string
			for _, mode := range []string{"sequential", "relaxed", "concurrent", "exact"} {
				var out bytes.Buffer
				err := run([]string{"-workload", d.Name, "-in", path, "-mode", mode, "-threads", "2", "-k", "8", "-seed", "11"}, &out)
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				// The third line is "<summary>  <wasted work>: N  pops: ...".
				lines := strings.Split(out.String(), "\n")
				summaries = append(summaries, strings.Split(lines[2], "  ")[0])
			}
			for _, s := range summaries[1:] {
				if s != summaries[0] {
					t.Fatalf("modes disagree on the summary: %q", summaries)
				}
			}
		})
	}
}

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range workload.Names() {
		if !strings.Contains(out.String(), name) {
			t.Fatalf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

func TestRunPageRankKnobs(t *testing.T) {
	path := writeTestGraph(t, 300, 1200)
	var out bytes.Buffer
	err := run([]string{
		"-workload", "pagerank", "-in", path, "-mode", "concurrent",
		"-threads", "2", "-tol", "1e-7", "-damping", "0.9",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "stale pops + re-pushes:") {
		t.Fatalf("missing wasted-work label:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTestGraph(t, 50, 100)
	badPath := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(badPath, []byte("not an edge list\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"missing workload", []string{"-in", path}},
		{"unknown workload", []string{"-workload", "galactic", "-in", path}},
		{"missing input", []string{"-workload", "mis"}},
		{"nonexistent file", []string{"-workload", "mis", "-in", "/does/not/exist"}},
		{"malformed file", []string{"-workload", "mis", "-in", badPath}},
		{"unknown mode", []string{"-workload", "mis", "-in", path, "-mode", "quantum"}},
		{"zero k", []string{"-workload", "mis", "-in", path, "-mode", "relaxed", "-k", "0"}},
		{"negative k", []string{"-workload", "kcore", "-in", path, "-mode", "relaxed", "-k", "-3"}},
		{"zero threads", []string{"-workload", "kcore", "-in", path, "-mode", "concurrent", "-threads", "0"}},
		{"negative threads", []string{"-workload", "mis", "-in", path, "-mode", "exact", "-threads", "-1"}},
		{"negative batch", []string{"-workload", "kcore", "-in", path, "-mode", "concurrent", "-batch", "-1"}},
		{"zero delta", []string{"-workload", "sssp", "-in", path, "-delta", "0"}},
		{"explicit zero tol", []string{"-workload", "pagerank", "-in", path, "-tol", "0"}},
		{"negative tol", []string{"-workload", "pagerank", "-in", path, "-tol", "-1e-9"}},
		{"damping at 1", []string{"-workload", "pagerank", "-in", path, "-damping", "1"}},
		{"source out of range", []string{"-workload", "sssp", "-in", path, "-source", "50"}},
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
