package listcontract

import (
	"testing"

	"relaxsched/internal/core"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
)

func TestConcurrentContractionDeterministicStress(t *testing.T) {
	// Regression stress for the stale-neighbor race: adjacent-priority nodes
	// delivered to different workers nearly simultaneously can catch a
	// neighbor pointer mid-splice. Small lists maximize adjacency collisions.
	r := rng.New(99)
	for trial := 0; trial < 200; trial++ {
		n := 50 + r.Intn(200)
		p := NewRandomList(n, r)
		labels := core.RandomLabels(n, r)
		wantPrev, wantNext := Sequential(p, labels)
		mq := multiqueue.NewConcurrent(8, n, uint64(trial))
		gotPrev, gotNext, _, err := RunConcurrent(p, labels, mq, core.Reinsert, core.Options{Workers: 8, BatchSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(gotPrev, gotNext, wantPrev, wantNext) {
			t.Fatalf("trial %d (n=%d): concurrent contraction differs from sequential", trial, n)
		}
		if err := Verify(p, labels, gotPrev, gotNext); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// stagedState is a core.State a test sets by hand.
type stagedState struct {
	labels    []uint32
	processed []bool
}

func (s *stagedState) NumTasks() int        { return len(s.labels) }
func (s *stagedState) Processed(v int) bool { return s.processed[v] }
func (s *stagedState) Label(v int) uint32   { return s.labels[v] }

// TestBlockedSeesSpliceInFlight stages the interleaving that livelocked
// concurrent contraction (rarely: a loop of 40 000 two-worker runs on
// 600-node lists reliably hit it once): on the chain 0 - 1 - 2, node 1 (highest priority) is halfway through its
// contraction — next[0] already points at 2, prev[2] still at 1. Node 0 no
// longer sees node 1; if it contracted now, node 1's pending store would
// leave prev[2] pointing at the contracted 0 for good.
func TestBlockedSeesSpliceInFlight(t *testing.T) {
	st := &stagedState{labels: []uint32{0: 1, 1: 0, 2: 2}, processed: make([]bool, 3)}
	inst := NewChain(3).NewInstance(st).(*Instance)

	inst.next[0].Store(2) // node 1's first store
	if !inst.Blocked(0) {
		t.Fatal("Blocked(0) = false while node 1's splice is half done")
	}
	if !inst.Blocked(2) {
		t.Fatal("Blocked(2) = false although it still points at the higher-priority node 1")
	}
	inst.prev[2].Store(0) // node 1's second store
	if inst.Blocked(0) {
		t.Fatal("Blocked(0) = true after the splice completed")
	}
	if !inst.Blocked(2) {
		t.Fatal("Blocked(2) = false although node 0 has the higher priority")
	}
}
