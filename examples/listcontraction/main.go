// Example: list contraction / cycle structure analysis with the relaxed
// framework.
//
// The input is a permutation interpreted as a functional graph (i -> p(i)),
// which decomposes into disjoint cycles. Contracting every node of each
// cycle in random priority order — the paper's List Contraction workload —
// is the core primitive behind parallel cycle counting and list ranking. The
// dependency structure is inherently sparse (at most one predecessor per
// node), so by Theorem 1 the relaxation overhead is negligible.
package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"relaxsched/internal/algos/listcontract"
	"relaxsched/internal/core"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "listcontraction example:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		n    = 200_000
		seed = 13
	)
	r := rng.New(seed)

	// Build the functional graph of a random permutation: next[i] = perm[i].
	// Its cycles partition the n nodes. Fixed points are singleton lists
	// (no pointers), so they are excluded from the cycle structure.
	perm := r.Perm(n)
	next := make([]int32, n)
	for i, p := range perm {
		if p == i {
			next[i] = listcontract.None
		} else {
			next[i] = int32(p)
		}
	}
	problem, err := listcontract.New(next)
	if err != nil {
		return err
	}
	fmt.Printf("random permutation on %d elements: %d cycles of length >= 2\n", n, countCycles(perm))

	labels := core.RandomLabels(n, r)

	start := time.Now()
	seqPrev, seqNext := listcontract.Sequential(problem, labels)
	fmt.Printf("sequential contraction: %v\n", time.Since(start))

	workers := runtime.GOMAXPROCS(0)
	mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*workers, n, seed)
	start = time.Now()
	gotPrev, gotNext, res, err := listcontract.RunConcurrent(problem, labels, mq, core.Reinsert, core.Options{Workers: workers})
	if err != nil {
		return err
	}
	fmt.Printf("concurrent contraction (%d workers): %v, extra iterations %d\n",
		workers, time.Since(start), res.ExtraIterations())

	if !listcontract.Equal(gotPrev, gotNext, seqPrev, seqNext) {
		return fmt.Errorf("concurrent contraction record differs from the sequential one")
	}
	if err := listcontract.Verify(problem, labels, gotPrev, gotNext); err != nil {
		return err
	}
	fmt.Println("contraction records are identical and satisfy the priority invariant ✔")

	// A node whose recorded neighbors are itself was the last survivor of
	// its cycle; counting them recovers the cycle count in parallel.
	lastSurvivors := 0
	for v := 0; v < n; v++ {
		if gotPrev[v] == int32(v) && gotNext[v] == int32(v) {
			lastSurvivors++
		}
	}
	fmt.Printf("cycles recovered from contraction records: %d\n", lastSurvivors)
	return nil
}

// countCycles counts the cycles of length at least two in the permutation.
func countCycles(perm []int) int {
	seen := make([]bool, len(perm))
	cycles := 0
	for i := range perm {
		if seen[i] || perm[i] == i {
			continue
		}
		cycles++
		for j := i; !seen[j]; j = perm[j] {
			seen[j] = true
		}
	}
	return cycles
}
