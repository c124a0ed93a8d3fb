package sssp

import (
	"testing"

	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/exactheap"
	"relaxsched/internal/sched/multiqueue"
)

func TestDeltaVariantsStayExact(t *testing.T) {
	// Bucketed priorities must never change the distances, only the amount
	// of wasted work — for any bucket width, scheduler, and worker count.
	r := rng.New(13)
	g, err := graph.GNM(1500, 9000, r)
	if err != nil {
		t.Fatal(err)
	}
	w, err := graph.RandomWeights(g, 100, 17)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Dijkstra(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []uint32{1, 4, 32, 1 << 20} {
		got, st, err := RunRelaxedDelta(g, w, 0, exactheap.New(g.NumVertices()), delta)
		if err != nil {
			t.Fatalf("delta=%d: %v", delta, err)
		}
		if !Equal(got, want) {
			t.Fatalf("delta=%d: sequential distances differ from Dijkstra", delta)
		}
		if st.Pops == 0 {
			t.Fatalf("delta=%d: implausible stats %+v", delta, st)
		}
		for _, workers := range []int{1, 3} {
			mq := multiqueue.NewConcurrent(4, g.NumVertices(), uint64(delta)+uint64(workers))
			got, _, err := RunConcurrentDelta(g, w, 0, mq, delta, core.Options{Workers: workers, BatchSize: 8})
			if err != nil {
				t.Fatalf("delta=%d workers=%d: %v", delta, workers, err)
			}
			if !Equal(got, want) {
				t.Fatalf("delta=%d workers=%d: concurrent distances differ from Dijkstra", delta, workers)
			}
			if err := Verify(g, w, 0, got); err != nil {
				t.Fatalf("delta=%d workers=%d: %v", delta, workers, err)
			}
		}
	}
}

func TestDeltaCoarseningAddsStalePopsNotErrors(t *testing.T) {
	// On an exact heap, coarser buckets weaken the delivery order and can
	// only increase wasted work; delta exceeding every distance degenerates
	// to FIFO-like behaviour. The test pins the qualitative shape rather
	// than exact counts (pop order within a bucket is tie-broken by task id).
	r := rng.New(23)
	g, err := graph.GNM(800, 8000, r)
	if err != nil {
		t.Fatal(err)
	}
	w, err := graph.RandomWeights(g, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := RunRelaxedDelta(g, w, 0, exactheap.New(800), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []uint32{16, 1 << 24} {
		got, st, err := RunRelaxedDelta(g, w, 0, exactheap.New(800), delta)
		if err != nil {
			t.Fatalf("delta=%d: %v", delta, err)
		}
		if !Equal(got, exact) {
			t.Fatalf("delta=%d: distances changed", delta)
		}
		if st.Pops < st.StalePops {
			t.Fatalf("delta=%d: inconsistent accounting %+v", delta, st)
		}
	}
}

func TestDeltaValidation(t *testing.T) {
	g := graph.Path(3)
	w := graph.UnitWeights(g)
	if _, _, err := RunRelaxedDelta(g, w, 0, exactheap.New(3), 0); err == nil {
		t.Fatal("zero delta accepted by RunRelaxedDelta")
	}
	mq := multiqueue.NewConcurrent(2, 3, 1)
	if _, _, err := RunConcurrentDelta(g, w, 0, mq, 0, core.Options{Workers: 1}); err == nil {
		t.Fatal("zero delta accepted by RunConcurrentDelta")
	}
	if _, _, err := RunConcurrentDelta(g, w, 0, mq, 1, core.Options{Workers: 1, BatchSize: -1}); err == nil {
		t.Fatal("negative batch size accepted")
	}
}
