package workload

import (
	"testing"

	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
)

// TestConcurrentMatchingIsDeterministic is the seeded stress loop for the
// defect benchmark/README.md documents: concurrent matching through the
// registry entry used to disagree with the sequential matching (6 of 2 000
// two-worker runs on this input), because Blocked took an edge in the middle
// of its own Process for dead (see matching.Instance.live). Every run
// must equal RunSequential, at 2 and at 4 workers.
func TestConcurrentMatchingIsDeterministic(t *testing.T) {
	runs := 25
	if testing.Short() {
		runs = 4
	}
	g, err := graph.GNM(20_000, 200_000, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Lookup("matching")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := d.New(g, Params{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	reference := inst.RunSequential()
	for _, workers := range []int{2, 4} {
		for run := 0; run < runs; run++ {
			mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*workers, inst.NumTasks(), uint64(run))
			out, _, err := inst.RunConcurrent(mq, ConcOptions{Workers: workers, BatchSize: 64})
			if err != nil {
				t.Fatalf("workers=%d run=%d: %v", workers, run, err)
			}
			if err := inst.Matches(reference, out); err != nil {
				t.Fatalf("workers=%d run=%d: %v", workers, run, err)
			}
		}
	}
}
