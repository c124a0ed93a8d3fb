package core

import (
	"sync/atomic"
	"testing"

	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/multiqueue"
)

func TestTunableClampsBatch(t *testing.T) {
	if b := NewTunable(0).Batch(); b != 1 {
		t.Errorf("NewTunable(0).Batch() = %d, want clamp to 1", b)
	}
	tun := NewTunable(16)
	if b := tun.Batch(); b != 16 {
		t.Errorf("Batch() = %d, want 16", b)
	}
	tun.SetBatch(-5)
	if b := tun.Batch(); b != 1 {
		t.Errorf("Batch() after SetBatch(-5) = %d, want 1", b)
	}
	tun.SetBatch(64)
	if b := tun.Batch(); b != 64 {
		t.Errorf("Batch() after SetBatch(64) = %d, want 64", b)
	}
}

func TestEpisodeBatchResizesOnlyOnChange(t *testing.T) {
	buf := make([]sched.Item, 8)
	if got := episodeBatch(nil, buf); len(got) != 8 || &got[0] != &buf[0] {
		t.Error("nil tunable must return the buffer unchanged")
	}
	tun := NewTunable(8)
	if got := episodeBatch(tun, buf); &got[0] != &buf[0] {
		t.Error("unchanged target must not reallocate")
	}
	tun.SetBatch(3)
	got := episodeBatch(tun, buf)
	if len(got) != 3 || &got[0] != &buf[0] {
		t.Errorf("shrink to 3: len = %d, reallocated = %v; want a reslice of the same buffer", len(got), &got[0] != &buf[0])
	}
	// Regrowing within the pooled capacity must keep the buffer too; only a
	// target beyond it allocates.
	tun.SetBatch(8)
	if got = episodeBatch(tun, got); len(got) != 8 || &got[0] != &buf[0] {
		t.Errorf("regrow to 8: len = %d, reallocated = %v; want the original buffer", len(got), &got[0] != &buf[0])
	}
	tun.SetBatch(9)
	if got = episodeBatch(tun, got); len(got) != 9 {
		t.Errorf("grow past capacity: len = %d, want 9", len(got))
	}
}

// TestRunConcurrentTunableRetunedMidRun retunes the batch size while a
// static execution is in flight: the output must still equal the sequential
// one (batch size affects performance and relaxation, never correctness)
// and the engine must resolve every task exactly once.
func TestRunConcurrentTunableRetunedMidRun(t *testing.T) {
	r := rng.New(91)
	const n = 4000
	p := randomDepthProblem(n, 16000, r)
	labels := RandomLabels(n, r)
	seqRes, err := RunSequential(p, labels)
	if err != nil {
		t.Fatal(err)
	}
	want := seqRes.Instance.(*depthInstance).depth

	tun := NewTunable(1)
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		sizes := []int{1, 7, 32, 2, 16}
		for i := 0; !stop.Load(); i++ {
			tun.SetBatch(sizes[i%len(sizes)])
		}
	}()

	mq := multiqueue.NewConcurrent(8, n, 7)
	res, err := RunConcurrent(p, labels, mq, Reinsert, Options{Workers: 4, Tunable: tun})
	stop.Store(true)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != n {
		t.Fatalf("processed %d tasks, want %d", res.Processed, n)
	}
	got := res.Instance.(*depthInstance).depth
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

// TestRunDynamicConcurrentTunableRetunedMidRun does the same for the
// dynamic engine, checking the exact pop-accounting identity that holds
// regardless of batch size.
func TestRunDynamicConcurrentTunableRetunedMidRun(t *testing.T) {
	const n, prio = 300, 9
	prob := &countdownProblem{}
	tun := NewTunable(1)
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 2; !stop.Load(); i++ {
			tun.SetBatch(1 + i%24)
		}
	}()

	mq := multiqueue.NewConcurrent(8, n, 3)
	res, err := RunDynamicConcurrent(prob, countdownSeeds(n, prio), mq, Options{Workers: 4, Tunable: tun})
	stop.Store(true)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	wantPops := int64(n * (prio + 1))
	if res.Pops != wantPops {
		t.Fatalf("Pops = %d, want %d", res.Pops, wantPops)
	}
	if got := prob.expanded.Load(); got != wantPops {
		t.Fatalf("expanded %d items, want %d", got, wantPops)
	}
}
