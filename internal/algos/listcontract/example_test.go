package listcontract_test

import (
	"fmt"

	"relaxsched/internal/algos/listcontract"
	"relaxsched/internal/core"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched/multiqueue"
)

// Example contracts the cycles of a random permutation read as the
// functional graph i -> p(i); fixed points carry no pointer. The node left
// pointing at itself is the last of its cycle, so the records count the
// cycles. With at most one predecessor per node, the relaxed run's extra
// iterations depend on k, not on n (Theorem 1).
func Example() {
	const n = 5000
	r := rng.New(13)
	next := make([]int32, n)
	for i, p := range r.Perm(n) {
		next[i] = int32(p)
		if p == i {
			next[i] = listcontract.None
		}
	}
	problem, err := listcontract.New(next)
	if err != nil {
		panic(err)
	}
	labels := core.RandomLabels(n, r)
	prev, succ := listcontract.Sequential(problem, labels)
	cycles := 0
	for v := range prev {
		if prev[v] == int32(v) && succ[v] == int32(v) {
			cycles++
		}
	}
	fmt.Printf("%d cycles of length >= 2, verified %t\n", cycles, listcontract.Verify(problem, labels, prev, succ) == nil)

	relPrev, relNext, res, err := listcontract.RunRelaxed(problem, labels, multiqueue.NewSequential(16, n, r.Fork()))
	fmt.Printf("relaxed (k=16): identical %t, extra iterations %d\n",
		err == nil && listcontract.Equal(relPrev, relNext, prev, succ), res.ExtraIterations())

	mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*2, n, 13)
	parPrev, parNext, _, err := listcontract.RunConcurrent(problem, labels, mq, core.Reinsert, core.Options{Workers: 2})
	fmt.Printf("concurrent (2 workers): identical %t\n", err == nil && listcontract.Equal(parPrev, parNext, prev, succ))
	// Output:
	// 8 cycles of length >= 2, verified true
	// relaxed (k=16): identical true, extra iterations 277
	// concurrent (2 workers): identical true
}
