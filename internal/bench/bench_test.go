package bench

import (
	"runtime"
	"strings"
	"testing"

	"relaxsched/internal/core"
)

func TestDefaultClasses(t *testing.T) {
	classes := DefaultClasses()
	if len(classes) != 3 {
		t.Fatalf("got %d classes, want 3", len(classes))
	}
	var sparse, smallDense Class
	for _, c := range classes {
		switch c.Name {
		case "sparse":
			sparse = c
		case "smalldense":
			smallDense = c
		}
		if c.Vertices <= 0 || c.Edges <= 0 {
			t.Fatalf("class %s has non-positive size", c.Name)
		}
	}
	degree := func(c Class) float64 { return 2 * float64(c.Edges) / float64(c.Vertices) }
	if degree(sparse) >= degree(smallDense) {
		t.Fatalf("sparse class (deg %.1f) should be sparser than smalldense (deg %.1f)",
			degree(sparse), degree(smallDense))
	}
}

func TestClassByName(t *testing.T) {
	c, err := ClassByName("sparse")
	if err != nil || c.Name != "sparse" {
		t.Fatalf("ClassByName(sparse) = %v, %v", c, err)
	}
	if _, err := ClassByName("nope"); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestDefaultThreadSweep(t *testing.T) {
	threads := DefaultThreadSweep()
	if len(threads) == 0 || threads[0] != 1 {
		t.Fatalf("sweep %v should start at 1", threads)
	}
	maxProcs := runtime.GOMAXPROCS(0)
	if threads[len(threads)-1] != maxProcs {
		t.Fatalf("sweep %v should end at GOMAXPROCS=%d", threads, maxProcs)
	}
	for i := 1; i < len(threads); i++ {
		if threads[i] <= threads[i-1] {
			t.Fatalf("sweep %v not strictly increasing", threads)
		}
	}
}

func TestRunSmallPanelVerified(t *testing.T) {
	// A Figure 2 panel is the sweep at one batch size: small graph,
	// verification on, 1-2 workers, relaxed vs. exact. This exercises the
	// full harness (generation, sequential baseline, relaxed and exact
	// parallel runs, per-trial Matches).
	report, err := RunScaling(ScalingConfig{
		Class:      Class{Name: "tiny", Vertices: 3000, Edges: 15000},
		Workers:    []int{1, 2},
		Schedulers: []string{SchedulerRelaxed, SchedulerExact},
		Trials:     1,
		Seed:       42,
		Verify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.SequentialSeconds <= 0 {
		t.Fatal("sequential baseline has no time")
	}
	if len(report.Points) != 4 {
		t.Fatalf("got %d points, want 4 (2 schedulers x 2 worker counts)", len(report.Points))
	}
	for _, pt := range report.Points {
		if pt.TimeMeanSeconds <= 0 || pt.Speedup <= 0 {
			t.Fatalf("point %s/%d has non-positive time or speedup", pt.Scheduler, pt.Workers)
		}
	}
	out := report.Format()
	for _, want := range []string{"tiny", SchedulerRelaxed, SchedulerExact, "seq=", "workers"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted report missing %q:\n%s", want, out)
		}
	}
	if report.BestThroughput(SchedulerRelaxed) <= 0 {
		t.Fatal("BestThroughput returned 0 for relaxed scheduler")
	}
}

func TestRunColoringAndMatchingPanels(t *testing.T) {
	// The extension beyond the paper's Figure 2: the same harness drives the
	// other framework algorithms. Tiny inputs, verification on.
	for _, alg := range []string{"coloring", "matching"} {
		report, err := RunScaling(ScalingConfig{
			Class:      Class{Name: "tiny", Vertices: 1200, Edges: 6000},
			Algorithm:  alg,
			Workers:    []int{1, 2},
			Schedulers: []string{SchedulerRelaxed, SchedulerExact},
			Trials:     1,
			Seed:       9,
			Verify:     true,
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(report.Points) != 4 {
			t.Fatalf("%s: got %d points, want 4", alg, len(report.Points))
		}
		for _, pt := range report.Points {
			if pt.TimeMeanSeconds <= 0 || pt.Speedup <= 0 {
				t.Fatalf("%s: bad point %+v", alg, pt)
			}
		}
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	cfg := ScalingConfig{
		Class:     Class{Name: "tiny", Vertices: 100, Edges: 200},
		Algorithm: "sorting",
		Workers:   []int{1},
		Trials:    1,
	}
	if _, err := RunScaling(cfg); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := RunScaling(ScalingConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	for name, cfg := range map[string]ScalingConfig{
		"zero workers":      {Workers: []int{0}},
		"zero batch":        {BatchSizes: []int{0}},
		"unknown scheduler": {Schedulers: []string{"galactic"}},
	} {
		cfg.Class = Class{Name: "tiny", Vertices: 100, Edges: 200}
		cfg.Trials = 1
		if _, err := RunScaling(cfg); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestScalingConfigDefaults(t *testing.T) {
	cfg := ScalingConfig{Class: Class{Name: "x", Vertices: 10, Edges: 5}}.withDefaults()
	if cfg.Algorithm != "mis" || cfg.Trials != 3 || cfg.QueueFactor <= 0 || len(cfg.Workers) == 0 || len(cfg.Schedulers) != 3 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if len(cfg.BatchSizes) != 1 || cfg.BatchSizes[0] != core.DefaultBatchSize {
		t.Fatalf("default batch sizes %v, want [%d]", cfg.BatchSizes, core.DefaultBatchSize)
	}
}
