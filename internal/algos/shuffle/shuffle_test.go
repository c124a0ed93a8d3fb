package shuffle

import (
	"math"
	"testing"
	"testing/quick"

	"relaxsched/internal/core"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/exactheap"
	"relaxsched/internal/sched/kbounded"
	"relaxsched/internal/sched/multiqueue"
	"relaxsched/internal/sched/spraylist"
	"relaxsched/internal/sched/topk"
)

func TestNewValidation(t *testing.T) {
	if _, err := New([]int32{0, 0, 2}); err != nil {
		t.Fatalf("valid targets rejected: %v", err)
	}
	cases := []struct {
		name    string
		targets []int32
	}{
		{"negative", []int32{0, -1}},
		{"above index", []int32{0, 2}},
		{"first nonzero", []int32{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.targets); err == nil {
				t.Fatalf("New accepted invalid targets %v", tc.targets)
			}
		})
	}
}

func TestRandomTargetsValid(t *testing.T) {
	r := rng.New(1)
	targets := RandomTargets(200, r)
	if _, err := New(targets); err != nil {
		t.Fatalf("RandomTargets produced invalid targets: %v", err)
	}
	if targets[0] != 0 {
		t.Fatalf("targets[0] = %d, want 0", targets[0])
	}
}

func TestSequentialKnownCases(t *testing.T) {
	cases := []struct {
		name    string
		targets []int32
		want    []int32
	}{
		{"identity targets", []int32{0, 1, 2, 3}, []int32{0, 1, 2, 3}},
		{"all to front", []int32{0, 0, 0, 0}, []int32{3, 0, 1, 2}},
		{"swap last two", []int32{0, 1, 2, 2}, []int32{0, 1, 3, 2}},
		{"empty", nil, []int32{}},
		{"single", []int32{0}, []int32{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Sequential(tc.targets)
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("got %v, want %v", got, tc.want)
				}
			}
			if err := Verify(got); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestVerifyCatchesBadPermutations(t *testing.T) {
	if err := Verify([]int32{0, 0, 2}); err == nil {
		t.Fatal("Verify accepted duplicate values")
	}
	if err := Verify([]int32{0, 5}); err == nil {
		t.Fatal("Verify accepted out-of-range value")
	}
	if err := Verify(nil); err != nil {
		t.Fatal("Verify rejected the empty permutation")
	}
}

func TestRelaxedMatchesSequentialAcrossSchedulers(t *testing.T) {
	r := rng.New(5)
	const n = 2000
	targets := RandomTargets(n, r)
	want := Sequential(targets)

	schedulers := map[string]sched.Scheduler{
		"exactheap":    exactheap.New(n),
		"topk16":       topk.New(16, n, rng.New(1)),
		"multiqueue16": multiqueue.NewSequential(16, n, rng.New(2)),
		"spraylist16":  spraylist.New(16, rng.New(3)),
		"kbounded16":   kbounded.New(16, n),
	}
	for name, s := range schedulers {
		got, res, err := RunRelaxed(targets, s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !Equal(got, want) {
			t.Fatalf("%s: relaxed shuffle differs from sequential", name)
		}
		if err := Verify(got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Processed != n {
			t.Fatalf("%s: processed %d iterations, want %d", name, res.Processed, n)
		}
	}
}

func TestSparseDependenciesLowOverhead(t *testing.T) {
	// The shuffle's dependency forest has at most n-1 edges, so Theorem 1
	// predicts small relaxation overhead.
	r := rng.New(7)
	const n = 5000
	targets := RandomTargets(n, r)
	_, res, err := RunRelaxed(targets, multiqueue.NewSequential(16, n, rng.New(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtraIterations() > n/10 {
		t.Fatalf("extra iterations = %d, unexpectedly large (n=%d)", res.ExtraIterations(), n)
	}
}

func TestConcurrentMatchesSequential(t *testing.T) {
	r := rng.New(9)
	const n = 3000
	targets := RandomTargets(n, r)
	want := Sequential(targets)
	for _, workers := range []int{1, 2, 4, 8} {
		mq := multiqueue.NewConcurrent(4*workers, n, uint64(workers))
		got, _, err := RunConcurrent(targets, mq, core.Reinsert, core.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !Equal(got, want) {
			t.Fatalf("workers=%d: concurrent shuffle differs from sequential", workers)
		}
	}
}

func TestShuffleUniformity(t *testing.T) {
	// The framework execution of the Knuth shuffle must produce uniform
	// permutations (over the randomness of the targets). Chi-square-style
	// check over all 24 permutations of 4 elements.
	r := rng.New(11)
	const trials = 48000
	counts := make(map[[4]int32]int)
	for trial := 0; trial < trials; trial++ {
		targets := RandomTargets(4, r)
		perm, _, err := RunRelaxed(targets, topk.New(3, 4, r.Fork()))
		if err != nil {
			t.Fatal(err)
		}
		counts[[4]int32{perm[0], perm[1], perm[2], perm[3]}]++
	}
	if len(counts) != 24 {
		t.Fatalf("saw %d distinct permutations, want 24", len(counts))
	}
	expected := float64(trials) / 24
	for perm, c := range counts {
		dev := math.Abs(float64(c)-expected) / expected
		if dev > 0.10 {
			t.Fatalf("permutation %v occurred %d times, deviates %.1f%% from uniform", perm, c, dev*100)
		}
	}
}

func TestDeterminismProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(500)
		targets := RandomTargets(n, r)
		want := Sequential(targets)
		got, _, err := RunRelaxed(targets, multiqueue.NewSequential(1+r.Intn(16), n, r.Fork()))
		if err != nil {
			return false
		}
		return Equal(got, want) && Verify(got) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRelaxedRejectsInvalidTargets(t *testing.T) {
	if _, _, err := RunRelaxed([]int32{0, 5}, exactheap.New(2)); err == nil {
		t.Fatal("RunRelaxed accepted invalid targets")
	}
	if _, _, err := RunConcurrent([]int32{0, 5}, multiqueue.NewConcurrent(2, 2, 1), core.Reinsert, core.Options{Workers: 1}); err == nil {
		t.Fatal("RunConcurrent accepted invalid targets")
	}
}

func BenchmarkRelaxedShuffle(b *testing.B) {
	r := rng.New(1)
	const n = 50000
	targets := RandomTargets(n, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunRelaxed(targets, multiqueue.NewSequential(16, n, rng.New(uint64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}
