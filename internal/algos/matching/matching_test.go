package matching

import (
	"testing"
	"testing/quick"

	"relaxsched/internal/core"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/exactheap"
	"relaxsched/internal/sched/kbounded"
	"relaxsched/internal/sched/multiqueue"
	"relaxsched/internal/sched/spraylist"
	"relaxsched/internal/sched/topk"
)

func TestSequentialOnPath(t *testing.T) {
	// Path 0-1-2-3 has edges (0,1),(1,2),(2,3) in id order. With identity
	// labels, greedy matches edge 0 and edge 2.
	g := graph.Path(4)
	matched := Sequential(g, core.IdentityLabels(3))
	want := []bool{true, false, true}
	if !Equal(matched, want) {
		t.Fatalf("got %v, want %v", matched, want)
	}
	if err := Verify(g, matched); err != nil {
		t.Fatal(err)
	}
	if Size(matched) != 2 {
		t.Fatalf("Size = %d, want 2", Size(matched))
	}
}

func TestSequentialOnStar(t *testing.T) {
	// A star can match exactly one edge.
	g := graph.Star(10)
	r := rng.New(1)
	labels := core.RandomLabels(int(g.NumEdges()), r)
	matched := Sequential(g, labels)
	if err := Verify(g, matched); err != nil {
		t.Fatal(err)
	}
	if Size(matched) != 1 {
		t.Fatalf("star matching size = %d, want 1", Size(matched))
	}
}

func TestSequentialOnCompleteGraphIsPerfect(t *testing.T) {
	// Greedy maximal matching on K_{2k} is maximal; on a complete graph any
	// maximal matching is perfect (n/2 edges).
	g := graph.Complete(8)
	r := rng.New(2)
	labels := core.RandomLabels(int(g.NumEdges()), r)
	matched := Sequential(g, labels)
	if err := Verify(g, matched); err != nil {
		t.Fatal(err)
	}
	if Size(matched) != 4 {
		t.Fatalf("complete-graph matching size = %d, want 4", Size(matched))
	}
}

func TestViaLineGraphAgreesWithDirect(t *testing.T) {
	r := rng.New(3)
	g, err := graph.GNM(80, 400, r)
	if err != nil {
		t.Fatal(err)
	}
	labels := core.RandomLabels(int(g.NumEdges()), r)
	direct := Sequential(g, labels)
	viaLG := ViaLineGraph(g, labels)
	if !Equal(direct, viaLG) {
		t.Fatal("line-graph MIS reduction disagrees with direct greedy matching")
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	g := graph.Path(4) // edges (0,1),(1,2),(2,3)
	cases := []struct {
		name    string
		matched []bool
	}{
		{"wrong length", []bool{true}},
		{"shared endpoint", []bool{true, true, false}},
		{"not maximal", []bool{false, false, false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := Verify(g, tc.matched); err == nil {
				t.Fatalf("Verify accepted invalid matching %v", tc.matched)
			}
		})
	}
}

func TestRelaxedMatchesSequentialAcrossSchedulers(t *testing.T) {
	r := rng.New(5)
	g, err := graph.GNM(200, 800, r)
	if err != nil {
		t.Fatal(err)
	}
	m := int(g.NumEdges())
	labels := core.RandomLabels(m, r)
	want := Sequential(g, labels)

	schedulers := map[string]sched.Scheduler{
		"exactheap":   exactheap.New(m),
		"topk8":       topk.New(8, m, rng.New(1)),
		"multiqueue8": multiqueue.NewSequential(8, m, rng.New(2)),
		"spraylist8":  spraylist.New(8, rng.New(3)),
		"kbounded8":   kbounded.New(8, m),
	}
	for name, s := range schedulers {
		got, res, err := RunRelaxed(g, labels, s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !Equal(got, want) {
			t.Fatalf("%s: relaxed matching differs from sequential", name)
		}
		if err := Verify(g, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Processed+res.DeadSkips != int64(m) {
			t.Fatalf("%s: accounting off: %+v", name, res)
		}
	}
}

func TestConcurrentMatchesSequential(t *testing.T) {
	r := rng.New(7)
	g, err := graph.GNM(400, 2400, r)
	if err != nil {
		t.Fatal(err)
	}
	m := int(g.NumEdges())
	labels := core.RandomLabels(m, r)
	want := Sequential(g, labels)
	for _, workers := range []int{1, 2, 4, 8} {
		mq := multiqueue.NewConcurrent(4*workers, m, uint64(workers))
		got, _, err := RunConcurrent(g, labels, mq, core.Reinsert, core.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !Equal(got, want) {
			t.Fatalf("workers=%d: concurrent matching differs from sequential", workers)
		}
		if err := Verify(g, got); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func TestMatchedEdgesAccessor(t *testing.T) {
	g := graph.Path(4)
	labels := core.IdentityLabels(3)
	res, err := core.RunRelaxed(New(g), labels, exactheap.New(3))
	if err != nil {
		t.Fatal(err)
	}
	edges := res.Instance.(*Instance).MatchedEdges()
	if len(edges) != 2 {
		t.Fatalf("MatchedEdges returned %d edges, want 2", len(edges))
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.FromEdges(5, nil)
	matched := Sequential(g, nil)
	if len(matched) != 0 {
		t.Fatalf("matching on edgeless graph has %d entries", len(matched))
	}
	if err := Verify(g, matched); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminismProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(100)
		maxM := int64(n) * int64(n-1) / 2
		mEdges := int64(r.Intn(int(maxM/2 + 1)))
		g, err := graph.GNM(n, mEdges, r)
		if err != nil {
			return false
		}
		m := int(g.NumEdges())
		labels := core.RandomLabels(m, r)
		want := Sequential(g, labels)
		if Verify(g, want) != nil {
			return false
		}
		got, _, err := RunRelaxed(g, labels, topk.New(1+r.Intn(16), m, r.Fork()))
		if err != nil {
			return false
		}
		return Equal(got, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRelaxedMatching(b *testing.B) {
	r := rng.New(1)
	g, err := graph.GNM(2000, 10000, r)
	if err != nil {
		b.Fatal(err)
	}
	m := int(g.NumEdges())
	labels := core.RandomLabels(m, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunRelaxed(g, labels, multiqueue.NewSequential(16, m, rng.New(uint64(i)))); err != nil {
			b.Fatal(err)
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

// TestBlockedSeesEdgeMidProcess stages the interleaving that made concurrent
// matching non-deterministic: the higher-priority edge e is halfway through
// its own Process (in the matching, first endpoint marked, the endpoint it
// shares with f not yet). dead(e) already reads true there, and a Blocked(f)
// that trusted it let f join the matching beside e.
func TestBlockedSeesEdgeMidProcess(t *testing.T) {
	p := New(graph.Path(3)) // edges e = (0,1), f = (1,2), sharing vertex 1
	const e, f = 0, 1
	if got := p.Edges(); got[e] != (graph.Edge{U: 0, V: 1}) || got[f] != (graph.Edge{U: 1, V: 2}) {
		t.Fatalf("unexpected edge numbering %v", got)
	}
	st := &stagedState{labels: []uint32{e: 0, f: 1}, processed: make([]bool, 2)}
	inst := p.NewInstance(st).(*Instance)

	inst.inMatching.Set(e)
	inst.vertexMatched.Set(0)
	if inst.Dead(f) {
		t.Fatal("staging is off: f must not be dead before e marks the shared vertex")
	}
	if !inst.Blocked(f) {
		t.Fatal("Blocked(f) = false while e is mid-Process: f would be matched beside e")
	}

	// Once e finishes, f is dead, and when e is marked processed nothing
	// blocks f any more.
	inst.vertexMatched.Set(1)
	if !inst.Dead(f) {
		t.Fatal("f must be dead once e has marked the shared vertex")
	}
	st.processed[e] = true
	if inst.Blocked(f) {
		t.Fatal("Blocked(f) = true after e was processed")
	}

	// An edge that is dead because a neighbor took its endpoint, and is not
	// itself in the matching, blocks nothing.
	inst = p.NewInstance(&stagedState{labels: []uint32{e: 0, f: 1}, processed: make([]bool, 2)}).(*Instance)
	inst.vertexMatched.Set(0)
	if inst.Blocked(f) {
		t.Fatal("Blocked(f) = true although e is dead and out of the matching")
	}
}
