package bench

import (
	"testing"
)

func tinyClass() Class {
	return Class{Name: "tiny", Vertices: 1200, Edges: 5000}
}

func TestDynamicScalingSweepShape(t *testing.T) {
	for _, alg := range []string{"sssp", "kcore"} {
		report, err := RunScaling(ScalingConfig{
			Class:      tinyClass(),
			Algorithm:  alg,
			Workers:    []int{1, 2},
			BatchSizes: []int{1, 16},
			Trials:     1,
			Seed:       5,
			Verify:     true,
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if report.Algorithm != alg || report.Tasks != tinyClass().Vertices {
			t.Fatalf("%s: unexpected report header %+v", alg, report)
		}
		// 3 schedulers x 2 worker counts x 2 batch sizes.
		if len(report.Points) != 12 {
			t.Fatalf("%s: got %d points, want 12", alg, len(report.Points))
		}
		for _, pt := range report.Points {
			if pt.ThroughputTasksPerSec <= 0 {
				t.Fatalf("%s: non-positive throughput in %+v", alg, pt)
			}
		}
	}
}

func TestDynamicSweepDeltaBucketing(t *testing.T) {
	// Coarse Δ buckets must keep the sweep exact (Verify is on) while
	// changing only wasted work.
	report, err := RunScaling(ScalingConfig{
		Class:      tinyClass(),
		Algorithm:  "sssp",
		Workers:    []int{2},
		BatchSizes: []int{16},
		Trials:     1,
		Delta:      64,
		Seed:       7,
		Verify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(report.Points))
	}
}

func TestGridClassGeneration(t *testing.T) {
	c, err := ClassByName("grid")
	if err != nil {
		t.Fatal(err)
	}
	if c.Model != ModelGrid {
		t.Fatalf("grid class model = %q", c.Model)
	}
	// A scaled-down grid sweep end to end, verified.
	report, err := RunScaling(ScalingConfig{
		Class:      Class{Name: "minigrid", Vertices: 900, Edges: 1740, Model: ModelGrid},
		Algorithm:  "sssp",
		Workers:    []int{1},
		Schedulers: []string{SchedulerRelaxed, SchedulerExact},
		Trials:     1,
		Seed:       11,
		Verify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Tasks != 900 || len(report.Points) != 2 {
		t.Fatalf("got %d tasks and %d points, want 900 and 2", report.Tasks, len(report.Points))
	}
}

func TestPageRankSweep(t *testing.T) {
	// A loose tolerance keeps the sweep fast; Verify compares every parallel
	// run against the power-iteration reference through the L1 budget.
	sweep, err := RunScaling(ScalingConfig{
		Class:      tinyClass(),
		Algorithm:  "pagerank",
		Workers:    []int{1, 2},
		BatchSizes: []int{1, 16},
		Trials:     1,
		Tolerance:  1e-6,
		Seed:       5,
		Verify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Algorithm != "pagerank" {
		t.Fatalf("unexpected sweep header %+v", sweep)
	}
	// 3 schedulers x 2 worker counts x 2 batch sizes.
	if len(sweep.Points) != 12 {
		t.Fatalf("got %d points, want 12", len(sweep.Points))
	}
	for _, pt := range sweep.Points {
		if pt.ThroughputTasksPerSec <= 0 {
			t.Fatalf("non-positive throughput in %+v", pt)
		}
	}
}

func TestPageRankPowerLawVerified(t *testing.T) {
	// The hub-heavy case the sweep tracks, scaled down: power-law degrees
	// concentrate residual mass at the hubs, the interesting regime for
	// residual-ordered scheduling.
	report, err := RunScaling(ScalingConfig{
		Class:      Class{Name: "miniplaw", Vertices: 1500, Edges: 6000, Model: ModelPowerLaw, Exponent: 2.5},
		Algorithm:  "pagerank",
		Workers:    []int{2},
		Schedulers: []string{SchedulerRelaxed, SchedulerExact},
		Trials:     1,
		Tolerance:  1e-7,
		Seed:       13,
		Verify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(report.Points))
	}
}
