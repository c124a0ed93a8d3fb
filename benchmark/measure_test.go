package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"relaxsched/internal/api"
)

// Tests of the measuring code itself: a benchmark whose arithmetic is
// wrong misjudges every later change.

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
}

func TestWindowedP99IsTheMedianOfTheWindows(t *testing.T) {
	// Five 1 s windows of 100 samples each; window w's slowest sample is
	// w+1 ms except window 2, where a 500 ms hiccup owns the tail.
	var at, vals []float64
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			at = append(at, float64(w)+float64(i)/100)
			v := 0.1
			if i == 50 {
				v = float64(w + 1)
				if w == 2 {
					v = 500
				}
			}
			vals = append(vals, v)
		}
	}
	per := windowPercentiles(at, vals, 5, 5, 99)
	p99 := median(per)
	if len(per) != 5 {
		t.Fatalf("got %d windows, want 5", len(per))
	}
	// Per-window p99 of 100 samples is the 99th smallest, i.e. 0.1: the
	// single slow sample is beyond it. Make two samples slow instead.
	if p99 != 0.1 {
		t.Errorf("one slow sample per window moved the p99 to %g", p99)
	}
	for i := range vals {
		if i%100 == 51 {
			vals[i] = vals[i-1]
		}
	}
	per = windowPercentiles(at, vals, 5, 5, 99)
	p99 = median(per)
	if want := []float64{1, 2, 500, 4, 5}; !reflect.DeepEqual(per, want) {
		t.Errorf("per-window p99 = %v, want %v", per, want)
	}
	if p99 != 4 {
		t.Errorf("median of windows = %g, want 4 (the 500 ms hiccup owns one window only)", p99)
	}
}

func TestQuietP50IgnoresSlowStretches(t *testing.T) {
	// Twelve seconds at 100 samples/s; seconds 3-8 run 30 % slow. The plain
	// median lands between the two levels; the quiet-window median does not.
	var at, vals []float64
	for i := 0; i < 1200; i++ {
		at = append(at, float64(i)/100)
		v := 1.0
		if sec := i / 100; sec >= 3 && sec <= 8 {
			v = 1.3
		}
		vals = append(vals, v)
	}
	p50, windows := quietP50(at, vals, 12*time.Second)
	if len(windows) != 12 || p50 != 1.0 {
		t.Errorf("quiet p50 = %g over %d windows, want 1 over 12", p50, len(windows))
	}
	if m := median(vals); m == 1.0 {
		t.Errorf("plain median %g: the test input should straddle the two levels", m)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Trace: 1, Name: spanClientSubmit, Start: 0, End: 100},
		{Trace: 1, Name: spanGateway, Parent: spanClientSubmit, Start: 10, End: 90},
		{Trace: 1, Name: spanBackendRT, Parent: spanGateway, Start: 20, End: 80},
		{Trace: 1, Name: spanNode, Parent: spanBackendRT, Start: 30, End: 70},
		// Another request: two overlapping children and one that sticks
		// out past its parent's end.
		{Trace: 2, Name: spanClientStatus, Start: 0, End: 100},
		{Trace: 2, Name: spanNode, Parent: spanClientStatus, Start: 10, End: 50},
		{Trace: 2, Name: spanNode, Parent: spanClientStatus, Start: 40, End: 60},
		{Trace: 2, Name: spanNode, Parent: spanClientStatus, Start: 90, End: 130},
		// Same names under another trace id must not be mistaken for
		// children of trace 1.
		{Trace: 3, Name: spanNode, Parent: spanClientSubmit, Start: 0, End: 100},
	}
	want := []int64{20, 20, 20, 40, 40, 40, 20, 40, 100}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// stallTarget answers instantly except for one submit, which blocks for
// stall.
type stallTarget struct {
	stallAt int64
	stall   time.Duration
	next    atomic.Int64
}

func (s *stallTarget) Submit(context.Context, api.JobSpec) (api.JobStatus, error) {
	id := s.next.Add(1)
	if id == s.stallAt {
		time.Sleep(s.stall)
	}
	return api.JobStatus{ID: id, State: api.StateQueued}, nil
}

func (s *stallTarget) Status(_ context.Context, id int64) (api.JobStatus, error) {
	return api.JobStatus{ID: id, State: api.StateDone}, nil
}

func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	target := &stallTarget{stallAt: 5, stall: stall}
	recs := runOpenLoop(context.Background(), target, func(int) api.JobSpec { return api.JobSpec{} }, 1000, 150*time.Millisecond)
	if len(recs) != 150 {
		t.Fatalf("%d jobs, want 150", len(recs))
	}
	for i, r := range recs {
		if r.Err != "" {
			t.Fatalf("job %d failed: %s", i, r.Err)
		}
		if want := time.Duration(i) * time.Millisecond; r.Due != want {
			t.Fatalf("job %d due at %s, want %s: the schedule must be absolute", i, r.Due, want)
		}
	}
	// Job 4 (the fifth submit) stalls; job 10 was due 6 ms into the stall
	// and could only go out when it ended, ~54 ms late. Timed from the
	// send it would look instant.
	late := recs[10]
	if fromDue := late.Acked - late.Due; fromDue < 45*time.Millisecond {
		t.Errorf("job 10 latency from its due time = %s, want the stall (>= 45ms) charged to it", fromDue)
	}
	if fromSend := late.Acked - late.Sent; fromSend > 20*time.Millisecond {
		t.Errorf("job 10 took %s from its actual send; the fake answers instantly", fromSend)
	}
	if lag := late.Sent - late.Due; lag < 45*time.Millisecond {
		t.Errorf("generator lag of job 10 = %s, want >= 45ms", lag)
	}
	// Once the backlog is worked off the generator is back on schedule.
	if last := recs[149]; last.Acked-last.Due > 20*time.Millisecond {
		t.Errorf("last job still %s behind its due time", last.Acked-last.Due)
	}
}

func TestClosedLoopRetiresEveryJob(t *testing.T) {
	targets := []jobTarget{&stallTarget{}, &stallTarget{}}
	recs := runClosedLoop(context.Background(), targets, func(i int) api.JobSpec {
		return api.JobSpec{Priority: jobPriority(i)}
	}, 50*time.Millisecond)
	if len(recs) < 2*closedLoopWindow {
		t.Fatalf("only %d jobs in 50 ms against an instant target", len(recs))
	}
	for _, r := range recs {
		if r.Err != "" || r.Polls != 1 || r.Done < r.Acked {
			t.Fatalf("bad record %+v", r)
		}
	}
}

func TestEqualSeedsGiveIdenticalInputs(t *testing.T) {
	d := graphDef{N: 3000, M: 15000}
	a, err := d.build(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := d.build(7)
	c, _ := d.build(8)
	if !reflect.DeepEqual(a.Edges(), b.Edges()) {
		t.Error("equal seeds built different graphs")
	}
	if reflect.DeepEqual(a.Edges(), c.Edges()) {
		t.Error("different seeds built the same graph")
	}

	specs := func(seed uint64) []byte {
		w := svcFleetConfig()
		w.seed = seed
		w.graphSeeds = []uint64{11, 12, 13}
		var all []byte
		for i := 0; i < 2*prioritySpread; i++ {
			b, err := json.Marshal(w.spec(i))
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, b...)
		}
		return all
	}
	if string(specs(7)) != string(specs(7)) {
		t.Error("equal seeds built different job specs")
	}
	if string(specs(7)) == string(specs(8)) {
		t.Error("different seeds built the same job specs")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "x_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(m float64) []float64 { return []float64{m * 0.99, m, m, m * 1.01, m} }
	wide := []float64{0.5, 0.8, 1, 1.3, 1.6}
	for _, c := range []struct {
		name    string
		d       metricDef
		a, b    []float64
		verdict string
	}{
		{"same", lower, tight(1), tight(1.05), verdictWithin},
		{"slower", lower, tight(1), tight(1.2), verdictWorse},
		{"faster", lower, tight(1), tight(0.5), verdictWithin},
		{"less throughput", higher, tight(100), tight(80), verdictWorse},
		{"more throughput", higher, tight(100), tight(150), verdictWithin},
		{"noisy", lower, wide, tight(1), verdictUnresolved},
	} {
		if _, got := judge(c.d, c.a, c.b); got != c.verdict {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.verdict)
		}
	}
}

func TestContractFileMatchesTheTables(t *testing.T) {
	want, err := contractJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from the tables in metrics.go; regenerate it with `go run . -contract > ../BENCHMARK.json`")
	}
	if len(endToEnd) != 11 || len(workloadDefs) != 4 {
		t.Errorf("%d end-to-end metrics and %d workloads; the contract is 11 and 4", len(endToEnd), len(workloadDefs))
	}
}

// checkContractLine asserts what the driver checks on a run's last line:
// every metric of the list present, finite, and (end to end) never zero.
func checkContractLine(t *testing.T, r *runResult, defs []metricDef, e2e bool) {
	t.Helper()
	if r.Attempted < 1 || r.Failed != 0 {
		t.Errorf("%s: %d attempted, %d failed: %v", r.Workload, r.Attempted, r.Failed, r.Failures)
	}
	m := contractMetrics(r, defs, e2e)
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (e2e && v.Value <= 0) {
			t.Errorf("%s: metric %s = %v (present %v)", r.Workload, d.Name, v.Value, ok)
		}
	}
}

func smokeExecConfig(cfg execConfig) execConfig {
	for i := range cfg.Graphs {
		g := &cfg.Graphs[i]
		if g.Rows > 0 {
			g.Rows, g.N = 40, 1600
		} else {
			g.N, g.M = 2000, 10000
		}
	}
	cfg.SetupReps = 1
	return cfg
}

func TestSmokeExecWorkloads(t *testing.T) {
	for name, cfg := range map[string]execConfig{wlExecStatic: execStaticConfig(), wlExecDynamic: execDynamicConfig()} {
		for _, traced := range []bool{false, true} {
			r, err := runExec(name, smokeExecConfig(cfg), 3, 0.2, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if traced {
				checkContractLine(t, r, perLayer, false)
				for _, must := range []string{"sched.drain_ns_per_item", "core.seqmodel_wasted", "core.w1_overhead_x", "graph.build_s"} {
					if _, ok := r.Values[must]; !ok {
						t.Errorf("%s: traced pass lacks %s", name, must)
					}
				}
				if _, ok := r.Values["service.exec_us_p50"]; ok {
					t.Errorf("%s reports a service metric; no service code may run", name)
				}
				if len(r.spans) == 0 {
					t.Errorf("%s: traced pass recorded no span", name)
				}
			} else {
				checkContractLine(t, r, endToEnd, true)
				for _, c := range cfg.Cases {
					if _, ok := r.Values[c.Metric]; !ok {
						t.Errorf("%s: no native value for %s", name, c.Metric)
					}
				}
			}
		}
	}
}

func TestSmokeSvcWorkloads(t *testing.T) {
	for _, mk := range []func() *svcWorkload{svcHotConfig, svcFleetConfig} {
		for _, traced := range []bool{false, true} {
			w := mk()
			w.SetupReps, w.TmpRoot = 2, t.TempDir()
			r, err := runSvc(w, 3, 1.5, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !traced {
				checkContractLine(t, r, endToEnd, true)
				continue
			}
			checkContractLine(t, r, perLayer, false)
			_, hasWAL := r.Values["wal.sync_wait_us_p50"]
			_, hasGW := r.Values["gateway.self_us_p50"]
			if fleet := w.Backends > 0; hasWAL != fleet || hasGW != fleet {
				t.Errorf("%s: wal metrics present %v, gateway metrics present %v", w.Name, hasWAL, hasGW)
			}
			if _, ok := r.Values["process.ledger_residual_ratio"]; !ok {
				t.Errorf("%s: no ledger residual", w.Name)
			}
		}
	}
}

func TestFleetWarmUpIsAFunctionOfTheSeed(t *testing.T) {
	seeds := func() []uint64 {
		w := svcFleetConfig()
		w.TmpRoot = t.TempDir()
		f, err := startFleet(w, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return w.graphSeeds
	}
	a, b := seeds(), seeds()
	if len(a) != svcFleetConfig().GraphKeys || !reflect.DeepEqual(a, b) {
		t.Errorf("graph keys %v then %v: ephemeral ports must not leak into the inputs", a, b)
	}
}
