package bench

import (
	"strings"
	"testing"
)

func sweepReport(class, alg string, best float64) ScalingReport {
	return ScalingReport{
		Class:     class,
		Algorithm: alg,
		Points: []ScalingPoint{
			{Scheduler: SchedulerRelaxed, Workers: 1, BatchSize: 16, ThroughputTasksPerSec: best / 2},
			{Scheduler: SchedulerRelaxed, Workers: 2, BatchSize: 16, ThroughputTasksPerSec: best},
			{Scheduler: SchedulerExact, Workers: 2, BatchSize: 16, ThroughputTasksPerSec: best * 3},
		},
	}
}

func TestReadScalingReportsRoundTrip(t *testing.T) {
	reports := []ScalingReport{sweepReport("hundredk", "mis", 1234)}
	var buf strings.Builder
	if err := WriteScalingReports(&buf, reports); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScalingReports(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Class != "hundredk" || got[0].BestThroughput(SchedulerRelaxed) != 1234 {
		t.Fatalf("round trip mangled reports: %+v", got)
	}
	if got[0].BestThroughput("nonexistent") != 0 {
		t.Fatal("BestThroughput for an absent scheduler should be 0")
	}
}

func TestSweepClasses(t *testing.T) {
	classes := SweepClasses()
	byName := make(map[string]Class, len(classes))
	for _, c := range classes {
		byName[c.Name] = c
	}
	million, ok := byName["million"]
	if !ok || million.Vertices != 1_000_000 {
		t.Fatalf("sweep classes missing the million-vertex track: %+v", classes)
	}
	pl, ok := byName["powerlaw"]
	if !ok || pl.Model != ModelPowerLaw {
		t.Fatalf("sweep classes missing the power-law track: %+v", classes)
	}
	for _, c := range classes {
		if _, err := ClassByName(c.Name); err != nil {
			t.Fatalf("ClassByName(%s): %v", c.Name, err)
		}
	}
}

func TestRunScalingPowerLawSmallVerified(t *testing.T) {
	rep, err := RunScaling(ScalingConfig{
		Class:      Class{Name: "tinypl", Vertices: 2000, Edges: 10000, Model: ModelPowerLaw},
		Workers:    []int{1},
		BatchSizes: []int{16},
		Schedulers: []string{SchedulerRelaxed},
		Trials:     1,
		Seed:       9,
		Verify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model != ModelPowerLaw {
		t.Fatalf("report model %q, want %q", rep.Model, ModelPowerLaw)
	}
	if len(rep.Points) != 1 || rep.Points[0].ThroughputTasksPerSec <= 0 {
		t.Fatalf("unexpected points: %+v", rep.Points)
	}
}
