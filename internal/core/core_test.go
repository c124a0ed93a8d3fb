package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/exactheap"
	"relaxsched/internal/sched/faaqueue"
	"relaxsched/internal/sched/kbounded"
	"relaxsched/internal/sched/multiqueue"
	"relaxsched/internal/sched/spraylist"
	"relaxsched/internal/sched/topk"
)

// depthProblem is a small dependency-graph problem used to exercise the
// executors: Process(v) assigns v a depth one larger than the maximum depth
// of its higher-priority neighbors. The resulting depth vector is a
// deterministic function of (graph, labels), so comparing it across executors
// and schedulers checks determinism end to end.
type depthProblem struct {
	n   int
	adj [][]int32
}

func newDepthProblem(n int, edges [][2]int32) *depthProblem {
	p := &depthProblem{n: n, adj: make([][]int32, n)}
	for _, e := range edges {
		p.adj[e[0]] = append(p.adj[e[0]], e[1])
		p.adj[e[1]] = append(p.adj[e[1]], e[0])
	}
	return p
}

func randomDepthProblem(n, m int, r *rng.Rand) *depthProblem {
	edges := make([][2]int32, 0, m)
	for len(edges) < m {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u != v {
			edges = append(edges, [2]int32{u, v})
		}
	}
	return newDepthProblem(n, edges)
}

func (p *depthProblem) NumTasks() int { return p.n }

func (p *depthProblem) NewInstance(st State) Instance {
	return &depthInstance{p: p, st: st, depth: make([]int32, p.n)}
}

type depthInstance struct {
	p     *depthProblem
	st    State
	depth []int32
}

func (inst *depthInstance) Blocked(v int) bool {
	lv := inst.st.Label(v)
	for _, u := range inst.p.adj[v] {
		if inst.st.Label(int(u)) < lv && !inst.st.Processed(int(u)) {
			return true
		}
	}
	return false
}

func (inst *depthInstance) Dead(int) bool { return false }

func (inst *depthInstance) Process(v int) {
	lv := inst.st.Label(v)
	var d int32
	for _, u := range inst.p.adj[v] {
		if inst.st.Label(int(u)) < lv && inst.depth[u]+1 > d {
			d = inst.depth[u] + 1
		}
	}
	inst.depth[v] = d
}

// killerProblem exercises the Dead shortcut: processing a task kills all of
// its higher-labelled neighbors (like MIS), and killed tasks must never be
// processed.
type killerProblem struct {
	n   int
	adj [][]int32
}

func newKillerProblem(n int, edges [][2]int32) *killerProblem {
	p := &killerProblem{n: n, adj: make([][]int32, n)}
	for _, e := range edges {
		p.adj[e[0]] = append(p.adj[e[0]], e[1])
		p.adj[e[1]] = append(p.adj[e[1]], e[0])
	}
	return p
}

func (p *killerProblem) NumTasks() int { return p.n }

func (p *killerProblem) NewInstance(st State) Instance {
	return &killerInstance{
		p:        p,
		st:       st,
		dead:     make([]atomic.Bool, p.n),
		selected: make([]atomic.Bool, p.n),
	}
}

type killerInstance struct {
	p        *killerProblem
	st       State
	dead     []atomic.Bool
	selected []atomic.Bool
}

func (inst *killerInstance) Blocked(v int) bool {
	lv := inst.st.Label(v)
	for _, u := range inst.p.adj[v] {
		if inst.st.Label(int(u)) < lv && !inst.st.Processed(int(u)) && !inst.dead[u].Load() {
			return true
		}
	}
	return false
}

func (inst *killerInstance) Dead(v int) bool { return inst.dead[v].Load() }

func (inst *killerInstance) Process(v int) {
	inst.selected[v].Store(true)
	for _, u := range inst.p.adj[v] {
		if inst.st.Label(int(u)) > inst.st.Label(v) {
			inst.dead[u].Store(true)
		}
	}
}

func (inst *killerInstance) selection() []bool {
	out := make([]bool, inst.p.n)
	for i := range out {
		out[i] = inst.selected[i].Load()
	}
	return out
}

func chainEdges(n int) [][2]int32 {
	edges := make([][2]int32, 0, n)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int32{int32(i), int32(i + 1)})
	}
	return edges
}

func TestLabelHelpers(t *testing.T) {
	r := rng.New(1)
	labels := RandomLabels(100, r)
	if err := validateLabels(100, labels); err != nil {
		t.Fatalf("RandomLabels produced invalid permutation: %v", err)
	}
	id := IdentityLabels(5)
	for i, l := range id {
		if int(l) != i {
			t.Fatalf("IdentityLabels[%d] = %d", i, l)
		}
	}
	order := TasksByLabel(labels)
	for pos, task := range order {
		if labels[task] != uint32(pos) {
			t.Fatalf("TasksByLabel inconsistent at position %d", pos)
		}
	}
}

func TestValidateLabels(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		labels []uint32
		ok     bool
	}{
		{"valid", 3, []uint32{2, 0, 1}, true},
		{"wrong length", 3, []uint32{0, 1}, false},
		{"out of range", 3, []uint32{0, 1, 3}, false},
		{"duplicate", 3, []uint32{0, 1, 1}, false},
		{"empty", 0, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateLabels(tc.n, tc.labels)
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && !errors.Is(err, ErrBadPermutation) {
				t.Fatalf("expected ErrBadPermutation, got %v", err)
			}
		})
	}
}

func TestRunSequentialChainDepths(t *testing.T) {
	const n = 10
	p := newDepthProblem(n, chainEdges(n))
	labels := IdentityLabels(n)
	res, err := RunSequential(p, labels)
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != n || res.Iterations != n || res.ExtraIterations() != 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
	depths := res.Instance.(*depthInstance).depth
	for i, d := range depths {
		if d != int32(i) {
			t.Fatalf("depth[%d] = %d, want %d (chain processed in order)", i, d, i)
		}
	}
}

func TestRunSequentialRejectsBadLabels(t *testing.T) {
	p := newDepthProblem(3, nil)
	if _, err := RunSequential(p, []uint32{0, 0, 1}); !errors.Is(err, ErrBadPermutation) {
		t.Fatalf("expected ErrBadPermutation, got %v", err)
	}
}

func TestRunRelaxedMatchesSequentialAcrossSchedulers(t *testing.T) {
	r := rng.New(7)
	p := randomDepthProblem(300, 900, r)
	labels := RandomLabels(300, r)
	seqRes, err := RunSequential(p, labels)
	if err != nil {
		t.Fatal(err)
	}
	want := seqRes.Instance.(*depthInstance).depth

	schedulers := map[string]sched.Scheduler{
		"exactheap":  exactheap.New(300),
		"topk8":      topk.New(8, 300, rng.New(1)),
		"multiqueue": multiqueue.NewSequential(8, 300, rng.New(2)),
		"spraylist":  spraylist.New(8, rng.New(3)),
		"kbounded":   kbounded.New(8, 300),
	}
	for name, s := range schedulers {
		res, err := RunRelaxed(p, labels, s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Processed != 300 {
			t.Fatalf("%s: processed %d tasks, want 300", name, res.Processed)
		}
		got := res.Instance.(*depthInstance).depth
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: depth[%d] = %d, want %d (non-deterministic output)", name, v, got[v], want[v])
			}
		}
		if res.Iterations != res.Processed+res.FailedDeletes {
			t.Fatalf("%s: iteration accounting inconsistent: %+v", name, res)
		}
	}
}

func TestRunRelaxedExactSchedulerHasNoFailedDeletes(t *testing.T) {
	r := rng.New(9)
	p := randomDepthProblem(200, 600, r)
	labels := RandomLabels(200, r)
	res, err := RunRelaxed(p, labels, exactheap.New(200))
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedDeletes != 0 {
		t.Fatalf("exact scheduler produced %d failed deletes", res.FailedDeletes)
	}
	if res.ExtraIterations() != 0 {
		t.Fatalf("exact scheduler produced %d extra iterations", res.ExtraIterations())
	}
}

func TestRunRelaxedNilScheduler(t *testing.T) {
	p := newDepthProblem(2, nil)
	if _, err := RunRelaxed(p, IdentityLabels(2), nil); !errors.Is(err, ErrNilScheduler) {
		t.Fatalf("expected ErrNilScheduler, got %v", err)
	}
}

func TestRunRelaxedKillerSkipsDeadTasks(t *testing.T) {
	// On a chain with identity labels, processing vertex i kills i+1, so
	// exactly the even vertices are selected.
	const n = 20
	p := newKillerProblem(n, chainEdges(n))
	labels := IdentityLabels(n)
	res, err := RunRelaxed(p, labels, topk.New(4, n, rng.New(11)))
	if err != nil {
		t.Fatal(err)
	}
	sel := res.Instance.(*killerInstance).selection()
	for v := 0; v < n; v++ {
		want := v%2 == 0
		if sel[v] != want {
			t.Fatalf("selected[%d] = %v, want %v", v, sel[v], want)
		}
	}
	if res.Processed+res.DeadSkips != n {
		t.Fatalf("processed+skips = %d, want %d", res.Processed+res.DeadSkips, n)
	}
	if res.DeadSkips != n/2 {
		t.Fatalf("dead skips = %d, want %d", res.DeadSkips, n/2)
	}
}

func TestRunConcurrentMatchesSequential(t *testing.T) {
	r := rng.New(21)
	p := randomDepthProblem(2000, 8000, r)
	labels := RandomLabels(2000, r)
	seqRes, err := RunSequential(p, labels)
	if err != nil {
		t.Fatal(err)
	}
	want := seqRes.Instance.(*depthInstance).depth

	for _, workers := range []int{1, 2, 4, 8} {
		mq := multiqueue.NewConcurrent(4*workers, 2000, uint64(workers))
		res, err := RunConcurrent(p, labels, mq, Reinsert, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Processed != 2000 {
			t.Fatalf("workers=%d: processed %d", workers, res.Processed)
		}
		got := res.Instance.(*depthInstance).depth
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("workers=%d: depth[%d] = %d, want %d", workers, v, got[v], want[v])
			}
		}
	}
}

func TestRunConcurrentExactFIFOWithWaitPolicy(t *testing.T) {
	r := rng.New(23)
	p := randomDepthProblem(1000, 3000, r)
	labels := RandomLabels(1000, r)
	seqRes, err := RunSequential(p, labels)
	if err != nil {
		t.Fatal(err)
	}
	want := seqRes.Instance.(*depthInstance).depth

	q := faaqueue.New(1000)
	res, err := RunConcurrent(p, labels, q, Wait, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Instance.(*depthInstance).depth
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestRunConcurrentKillerDeterministic(t *testing.T) {
	r := rng.New(31)
	p := &killerProblem{n: 1500, adj: randomDepthProblem(1500, 6000, r).adj}
	labels := RandomLabels(1500, r)
	seqRes, err := RunSequential(p, labels)
	if err != nil {
		t.Fatal(err)
	}
	want := seqRes.Instance.(*killerInstance).selection()

	for trial := 0; trial < 3; trial++ {
		mq := multiqueue.NewConcurrent(16, 1500, uint64(trial))
		res, err := RunConcurrent(p, labels, mq, Reinsert, Options{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Instance.(*killerInstance).selection()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("trial %d: selected[%d] = %v, want %v", trial, v, got[v], want[v])
			}
		}
		if res.Processed+res.DeadSkips != 1500 {
			t.Fatalf("trial %d: processed+skips = %d", trial, res.Processed+res.DeadSkips)
		}
	}
}

func TestRunConcurrentOptionValidation(t *testing.T) {
	p := newDepthProblem(2, nil)
	labels := IdentityLabels(2)
	if _, err := RunConcurrent(p, labels, nil, Reinsert, Options{Workers: 1}); !errors.Is(err, ErrNilScheduler) {
		t.Fatalf("expected ErrNilScheduler, got %v", err)
	}
	mq := multiqueue.NewConcurrent(2, 2, 1)
	if _, err := RunConcurrent(p, labels, mq, Reinsert, Options{Workers: 0}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("expected ErrNoWorkers, got %v", err)
	}
	if _, err := RunConcurrent(p, []uint32{0, 0}, mq, Reinsert, Options{Workers: 1}); !errors.Is(err, ErrBadPermutation) {
		t.Fatalf("expected ErrBadPermutation, got %v", err)
	}
}

func TestRunConcurrentSingleWorkerWithLockedScheduler(t *testing.T) {
	r := rng.New(41)
	p := randomDepthProblem(500, 1500, r)
	labels := RandomLabels(500, r)
	seqRes, err := RunSequential(p, labels)
	if err != nil {
		t.Fatal(err)
	}
	want := seqRes.Instance.(*depthInstance).depth

	s := sched.NewLocked(topk.New(16, 500, rng.New(1)))
	res, err := RunConcurrent(p, labels, s, Reinsert, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Instance.(*depthInstance).depth
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestDeterminismPropertyAcrossRandomInputs(t *testing.T) {
	// Property: for random graphs, random permutations and a relaxed
	// scheduler, the relaxed execution output always equals the sequential
	// output.
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 20 + r.Intn(200)
		m := r.Intn(4 * n)
		p := randomDepthProblem(n, m, r)
		labels := RandomLabels(n, r)
		seqRes, err := RunSequential(p, labels)
		if err != nil {
			return false
		}
		want := seqRes.Instance.(*depthInstance).depth
		s := multiqueue.NewSequential(1+r.Intn(16), n, r.Fork())
		res, err := RunRelaxed(p, labels, s)
		if err != nil {
			return false
		}
		got := res.Instance.(*depthInstance).depth
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return res.Processed == int64(n)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentExecutorIsRaceFreeUnderStress(t *testing.T) {
	// Run several concurrent executions in parallel to give the race
	// detector more scheduling interleavings to examine.
	r := rng.New(55)
	p := randomDepthProblem(800, 3000, r)
	labels := RandomLabels(800, r)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mq := multiqueue.NewConcurrent(8, 800, uint64(i))
			if _, err := RunConcurrent(p, labels, mq, Reinsert, Options{Workers: 4}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}
