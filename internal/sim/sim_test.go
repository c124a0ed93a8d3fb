package sim

import (
	"strings"
	"testing"

	"relaxsched/internal/workload"
)

// algorithms returns every algorithm a cell accepts: the registry's static
// workloads plus the two graph-free ones.
func algorithms() []string {
	var names []string
	for _, d := range workload.All() {
		if d.Kind == workload.Static {
			names = append(names, d.Name)
		}
	}
	return append(names, algListContract, algShuffle)
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"defaults applied", Config{Vertices: 100, Edges: 200, K: 1, Trials: 1}, true},
		{"explicit mis multiqueue", Config{Algorithm: "mis", Scheduler: SchedMultiQueue, Vertices: 50, Edges: 100, K: 4, Trials: 1}, true},
		{"listcontract ignores edges", Config{Algorithm: algListContract, Vertices: 50, Edges: -5, K: 4, Trials: 1}, true},
		{"unknown algorithm", Config{Algorithm: "foo", Vertices: 10, Edges: 5, K: 4, Trials: 1}, false},
		{"dynamic workload", Config{Algorithm: "sssp", Vertices: 10, Edges: 5, K: 4, Trials: 1}, false},
		{"unknown scheduler", Config{Scheduler: "bar", Vertices: 10, Edges: 5, K: 4, Trials: 1}, false},
		{"zero vertices", Config{Vertices: 0, Edges: 0, K: 4, Trials: 1}, false},
		{"too many edges", Config{Vertices: 10, Edges: 100, K: 4, Trials: 1}, false},
		{"negative edges graph alg", Config{Algorithm: "coloring", Vertices: 10, Edges: -1, K: 4, Trials: 1}, false},
		{"zero k", Config{Vertices: 100, Edges: 200, K: 0, Trials: 1}, false},
		{"negative k", Config{Vertices: 100, Edges: 200, K: -3, Trials: 1}, false},
		{"zero trials", Config{Vertices: 100, Edges: 200, K: 4, Trials: 0}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestEnumerations(t *testing.T) {
	if len(algorithms()) < 5 {
		t.Fatalf("algorithms() = %v, want the 3 static workloads plus listcontract and shuffle", algorithms())
	}
	if len(Schedulers()) != 4 {
		t.Fatalf("Schedulers() has %d entries", len(Schedulers()))
	}
	if len(Table1Sizes()) != 6 || len(Table1Ks()) != 5 {
		t.Fatal("Table 1 grid dimensions wrong")
	}
}

func TestRunCellMISProducesSaneNumbers(t *testing.T) {
	cell, err := RunCell(Config{
		Algorithm: "mis",
		Scheduler: SchedMultiQueue,
		Vertices:  1000,
		Edges:     10000,
		K:         8,
		Trials:    2,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cell.Tasks != 1000 {
		t.Fatalf("Tasks = %d, want 1000", cell.Tasks)
	}
	if cell.ExtraIterations.N != 2 {
		t.Fatalf("trials recorded = %d, want 2", cell.ExtraIterations.N)
	}
	if cell.ExtraIterations.Mean < 0 {
		t.Fatalf("negative extra iterations %v", cell.ExtraIterations.Mean)
	}
	// Theorem 2: for MIS the overhead is poly(k), so it must stay well below
	// n even for this moderately dense graph.
	if cell.ExtraIterations.Mean > 1000 {
		t.Fatalf("extra iterations %.1f exceed n", cell.ExtraIterations.Mean)
	}
}

func TestRunCellAllAlgorithmsAndSchedulers(t *testing.T) {
	// Every trial is checked against the sequential output inside RunCell,
	// so a passing cell is a verified one.
	for _, alg := range algorithms() {
		for _, sk := range Schedulers() {
			t.Run(alg+"/"+string(sk), func(t *testing.T) {
				cell, err := RunCell(Config{
					Algorithm: alg,
					Scheduler: sk,
					Vertices:  200,
					Edges:     600,
					K:         8,
					Trials:    2,
					Seed:      7,
				})
				if err != nil {
					t.Fatal(err)
				}
				if cell.Tasks <= 0 {
					t.Fatal("no tasks recorded")
				}
				if cell.ExtraIterations.Mean < 0 {
					t.Fatal("negative extra iterations")
				}
			})
		}
	}
}

func TestRunCellExactWhenKOne(t *testing.T) {
	// With k = 1 every scheduler family degenerates to an exact queue and
	// there must be no extra iterations at all.
	for _, alg := range algorithms() {
		for _, sk := range Schedulers() {
			t.Run(alg+"/"+string(sk), func(t *testing.T) {
				cell, err := RunCell(Config{
					Algorithm: alg,
					Scheduler: sk,
					Vertices:  300,
					Edges:     900,
					K:         1,
					Trials:    1,
					Seed:      3,
				})
				if err != nil {
					t.Fatal(err)
				}
				if cell.ExtraIterations.Mean != 0 {
					t.Fatalf("k=1 produced %.1f extra iterations", cell.ExtraIterations.Mean)
				}
			})
		}
	}
}

func TestRunCellRejectsInvalidConfig(t *testing.T) {
	if _, err := RunCell(Config{Vertices: -1, K: 1, Trials: 1}); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := RunCell(Config{Vertices: 100, Edges: 200}); err == nil {
		t.Fatal("zero k and trials accepted")
	}
}

func TestSweepAndFormatTable(t *testing.T) {
	sizes := []Size{{Vertices: 200, Edges: 600}, {Vertices: 400, Edges: 600}}
	ks := []int{2, 8}
	results, err := Sweep("mis", SchedMultiQueue, sizes, ks, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("sweep produced %d cells, want 4", len(results))
	}
	table := FormatTable(results)
	for _, want := range []string{"k=2", "k=8", "200", "400"} {
		if !strings.Contains(table, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, table)
		}
	}
	if FormatTable(nil) == "" {
		t.Fatal("FormatTable(nil) returned empty string")
	}
}

func TestMISOverheadScalesWithKNotN(t *testing.T) {
	// Theorem 2's headline: the MIS relaxation overhead does not grow with
	// the input size. Compare two graph sizes at fixed k; the larger graph's
	// overhead must not be dramatically larger (allow generous slack for
	// noise since these are single trials).
	small, err := RunCell(Config{Algorithm: "mis", Vertices: 1000, Edges: 5000, K: 16, Trials: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunCell(Config{Algorithm: "mis", Vertices: 8000, Edges: 40000, K: 16, Trials: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if large.ExtraIterations.Mean > 8*(small.ExtraIterations.Mean+50) {
		t.Fatalf("MIS overhead grew with n: %.1f (n=1000) vs %.1f (n=8000)",
			small.ExtraIterations.Mean, large.ExtraIterations.Mean)
	}
}
