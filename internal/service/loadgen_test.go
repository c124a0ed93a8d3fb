package service

import (
	"context"
	"strings"
	"testing"

	"relaxsched/internal/api"
)

// TestRunLoadClosedLoop drives a small closed-loop load through a real
// manager over HTTP and checks the report end to end: all jobs done, cache
// serving everything after the first build, rank error recorded.
func TestRunLoadClosedLoop(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 2, JobSched: JobSchedMultiQueue, JobSchedK: 4})

	res, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:   srv.URL,
		Clients:   3,
		Jobs:      12,
		Workloads: []string{"mis", "pagerank", "sssp"},
		Mode:      "concurrent",
		Graph:     api.GraphSpec{Model: api.ModelGNP, N: 500, Edges: 2000, Seed: 1},
		Verify:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 12 || res.Failed != 0 {
		t.Fatalf("load result: %+v", res)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %v", res.Throughput)
	}
	if res.Latency.N != 12 {
		t.Fatalf("latency samples = %d", res.Latency.N)
	}
	if res.Metrics.Jobs.Done != 12 {
		t.Fatalf("server saw %d done jobs", res.Metrics.Jobs.Done)
	}
	if res.Metrics.Cache.Misses != 1 || res.Metrics.Cache.Hits != 11 {
		t.Fatalf("cache stats: %+v", res.Metrics.Cache)
	}
	if res.Metrics.RankError.Count != 12 {
		t.Fatalf("rank error count: %+v", res.Metrics.RankError)
	}

	// Every accepted job was observed terminal: the unfinished ledger must
	// balance exactly.
	if len(res.Accepted) != 12 || len(res.Terminal) != 12 || res.Unfinished != 0 {
		t.Fatalf("accepted=%d terminal=%d unfinished=%d, want 12/12/0",
			len(res.Accepted), len(res.Terminal), res.Unfinished)
	}
	for _, id := range res.Accepted {
		if st, ok := res.Terminal[id]; !ok || st != api.StateDone {
			t.Fatalf("accepted job %d terminal state = %v (tracked %v)", id, st, ok)
		}
	}

	report := res.Format()
	for _, want := range []string{"12 done", "rank error", "graph cache", "multiqueue"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "WARNING") {
		t.Fatalf("clean run reported unfinished jobs:\n%s", report)
	}
}

// TestLoadResultReportsUnfinished: a run that loses track of accepted jobs
// (crashed server, interrupted poll) must say so in the report instead of
// silently dropping them from the summary.
func TestLoadResultReportsUnfinished(t *testing.T) {
	r := LoadResult{
		Jobs:       3,
		Unfinished: 2,
		Accepted:   []int64{1, 2, 3, 4, 5},
		Terminal:   map[int64]api.JobState{1: api.StateDone, 2: api.StateDone, 3: api.StateFailed},
	}
	report := r.Format()
	if !strings.Contains(report, "WARNING: 2 accepted jobs never reached a terminal state") {
		t.Fatalf("report missing unfinished warning:\n%s", report)
	}
}

// TestRunLoadBacksOffWhenQueueFull: a 1-worker, depth-1 service forces the
// closed-loop clients through the 429 path; every job still completes.
func TestRunLoadBacksOffWhenQueueFull(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	// Jobs big enough that the single worker stays busy for many poll
	// intervals even with the graph cache warm: with one slot queued behind
	// it, the other clients must hit the 429 path. (At 60k nodes a warm-cache
	// MIS pass occasionally finished inside the submit gap and the run saw
	// zero rejections.)
	res, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:   srv.URL,
		Clients:   4,
		Jobs:      8,
		Workloads: []string{"mis"},
		Mode:      "sequential",
		Graph:     api.GraphSpec{Model: api.ModelGNP, N: 400_000, Edges: 1_600_000, Seed: 2},
		Verify:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 8 || res.Failed != 0 {
		t.Fatalf("load result: %+v", res)
	}
	if res.Rejected == 0 {
		t.Fatal("depth-1 queue under 4 clients never rejected a submission")
	}
}

func TestRunLoadRequiresBaseURL(t *testing.T) {
	if _, err := RunLoad(context.Background(), LoadConfig{}); err == nil {
		t.Fatal("missing BaseURL accepted")
	}
}
