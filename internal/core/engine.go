package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"relaxsched/internal/sched"
)

// This file is the package's one execution engine. Everything a scheduler
// drives in this repository — the paper's static framework (through the
// adapter in static.go) and the mutable-priority workloads (sssp, kcore,
// pagerank) — is a DynamicProblem run by the loops below.

// DynamicProblem describes a workload as a stream of prioritized items. An
// execution starts from a set of seed items and repeatedly delivers items to
// the problem: stale items (whose priority no longer reflects the current
// state) are dropped, live items are expanded, and expansion may emit
// follow-on items that re-enter the scheduler. The execution terminates when
// every inserted item has been resolved, or as soon as Done reports true.
//
// Implementations used with RunDynamicConcurrent must be safe for concurrent
// calls from multiple goroutines: Stale and Expand race on overlapping
// neighborhoods, and correctness must come from the problem's own monotone
// state updates (CAS-minimum distance labels, CAS-decreasing core estimates,
// the static framework's Blocked/Dead checks).
type DynamicProblem interface {
	// Stale reports whether a delivered item is outdated and should be
	// dropped without expansion. The engine calls Stale exactly once per
	// delivered item, so an implementation may claim the item as a side
	// effect (e.g. clear a dirty bit) when it returns false.
	Stale(task int32, priority uint32) bool
	// Expand processes a live item and emits follow-on items through em.
	// The emitted items are inserted into the scheduler by the engine.
	Expand(task int32, priority uint32, em *Emitter)
	// Done reports whether the execution may stop early, before the
	// scheduler drains. Problems that always run to completion return false.
	Done() bool
}

// Emitter collects the follow-on items produced by DynamicProblem.Expand.
// The engine owns the buffer and flushes it to the scheduler in batches;
// problems only call Emit and Requeue.
type Emitter struct {
	// Worker is the index of the engine worker running the current Expand
	// call (always 0 in the sequential engine). Problems that need scratch
	// space during expansion index per-worker scratch with it instead of
	// allocating per call.
	Worker int
	items  []sched.Item
	// requeues counts Requeue calls since the engine handed the emitter to
	// its worker.
	requeues int64
}

// Emit adds a follow-on item.
func (e *Emitter) Emit(task int32, priority uint32) {
	e.items = append(e.items, sched.Item{Task: task, Priority: priority})
}

// Reset discards the buffered items, retaining capacity.
func (e *Emitter) Reset() { e.items = e.items[:0] }

// Requeue puts the item being expanded back into the scheduler because it
// cannot be handled yet — the static framework's failed delete. To the
// termination protocol a requeue is an ordinary emission; the engine
// additionally counts it (DynamicStats.Requeues) and uses it as its
// no-progress signal: a concurrent worker whose whole batch was requeued
// yields its processor before popping again.
func (e *Emitter) Requeue(task int32, priority uint32) {
	e.requeues++
	e.Emit(task, priority)
}

// DynamicStats counts the work performed by an execution.
type DynamicStats struct {
	// Pops is the number of items delivered by the scheduler.
	Pops int64
	// StalePops is the number of delivered items dropped as stale.
	StalePops int64
	// Emitted is the number of items expansions put into the scheduler,
	// requeues included.
	Emitted int64
	// Requeues is the number of delivered items put back unhandled
	// (Emitter.Requeue); zero for problems that never requeue.
	Requeues int64
	// EmptyPolls is the number of scheduler polls that found nothing while
	// work remained (concurrent executions only).
	EmptyPolls int64
}

func (s *DynamicStats) add(o DynamicStats) {
	s.Pops += o.Pops
	s.StalePops += o.StalePops
	s.Emitted += o.Emitted
	s.Requeues += o.Requeues
	s.EmptyPolls += o.EmptyPolls
}

// DefaultBatchSize is the number of items a worker requests from the
// scheduler per synchronization episode when Options.BatchSize is zero.
// Batching amortizes one scheduler acquisition (a sub-queue lock, a
// fetch-and-add) over the whole batch; the value is a compromise between
// amortization and the extra relaxation a batch introduces (popping B items
// at once behaves like a scheduler whose rank bound grew by B).
const DefaultBatchSize = 16

// Options configures a concurrent execution (RunDynamicConcurrent, and
// RunConcurrent through the static adapter).
type Options struct {
	// Workers is the number of goroutines processing items. It must be at
	// least 1.
	Workers int
	// BatchSize is the number of items a worker requests from the scheduler
	// per acquisition; emitted items are flushed back in batches of at least
	// the same size. Zero selects DefaultBatchSize; 1 reproduces the
	// single-item delivery discipline.
	BatchSize int
	// Cancel, when non-nil, aborts the execution as soon as the channel is
	// closed (a context's Done channel fits directly): workers stop at their
	// next batch boundary and the run returns ErrCanceled. The problem's
	// state is then partial and must be discarded. A nil channel disables
	// cancellation at no cost to the hot loop.
	Cancel <-chan struct{}
	// Tunable, when non-nil, supplies the batch size dynamically: workers
	// re-read it at every batch episode, so an external controller
	// (internal/control) can retune a running execution. It overrides
	// BatchSize; its value at start seeds the workers' buffers. Nil keeps
	// the static BatchSize path at no cost.
	Tunable *TunableOptions
}

// RunDynamic executes a problem with a (possibly relaxed) sequential-model
// scheduler: items are delivered one at a time, stale items are dropped, and
// emitted items re-enter the scheduler. The execution ends when the
// scheduler drains or Done reports true.
func RunDynamic(p DynamicProblem, seeds []sched.Item, s sched.Scheduler) (DynamicStats, error) {
	if p == nil {
		return DynamicStats{}, ErrNilProblem
	}
	if s == nil {
		return DynamicStats{}, ErrNilScheduler
	}
	for _, it := range seeds {
		s.Insert(it)
	}
	var st DynamicStats
	sc := getScratch(0)
	defer putScratch(sc)
	em := &sc.em
	for !p.Done() {
		it, ok := s.ApproxGetMin()
		if !ok {
			break
		}
		st.Pops++
		if p.Stale(it.Task, it.Priority) {
			st.StalePops++
			continue
		}
		p.Expand(it.Task, it.Priority, em)
		st.Emitted += int64(len(em.items))
		for _, e := range em.items {
			s.Insert(e)
		}
		em.Reset()
	}
	st.Requeues = em.requeues
	return st, nil
}

// workerSlot is one worker's execution-time state, laid out as two 64-byte
// cache lines: the first holds the counters only the owning worker writes,
// the second the balance register other workers read. Without the padding,
// several workers' counters land on one line and every Pops++ invalidates
// the others' caches; without the split, idle workers' termination-check
// loads of balance would pull the owner's hot counter line into shared state
// and each owner increment would pay a coherence miss.
type workerSlot struct {
	DynamicStats               // 40 bytes, written only by the owning worker
	_            [64 - 40]byte // rest of the owner-private cache line
	// balance is the worker's published (emitted - resolved) item count; see
	// RunDynamicConcurrent for the protocol.
	balance atomic.Int64
	_       [64 - 8]byte
}

// Compile-time guard: workerSlot must stay exactly two 64-byte cache
// lines. Adding a counter to DynamicStats without re-padding breaks this
// assignment instead of silently re-introducing false sharing.
var _ [128]byte = [unsafe.Sizeof(workerSlot{})]byte{}

// sumBalances collects the published balances.
func sumBalances(states []workerSlot) int64 {
	var total int64
	for i := range states {
		total += states[i].balance.Load()
	}
	return total
}

// RunDynamicConcurrent executes a problem with worker goroutines sharing a
// concurrent scheduler. Workers drain the scheduler in batches and flush
// emitted items back in batches (see Options.BatchSize).
//
// # Termination
//
// A concurrent scheduler may report empty while another worker still holds
// the last items, so emptiness alone proves nothing. Each worker therefore
// owns a single-writer register, its balance, and follows two rules: it
// adds +1 for every item it emits before inserting that item, and -1 for
// every item it resolves (drops as stale or has expanded) only after it has
// handled it. Both are batched into one atomic add per episode on the
// worker's own cache line. Call an item live from its insertion until its
// -1 is published. The rules give the invariant
//
//	len(seeds) + sum of balances >= number of live items
//
// at every instant, with equality whenever no worker holds unpublished
// resolutions. A worker that finds the scheduler empty (it has published
// everything: each episode ends with a flush) collects the registers one by
// one, and returns iff the collected sum is -len(seeds).
//
// Safety (the execution never returns nil while an item is live): the
// collect is not an atomic snapshot, but a worker publishes nothing from the
// start of its final collect on, so the worker whose final collect starts
// last reads registers that no longer change. Its sum is exact, it is zero
// only if nothing is live, and the execution returns only after that worker
// does. A collect racing with publications can read zero early when balances
// move both ways; that worker merely retires early and the rest carry on.
// For the static adapter balances only fall (a requeue nets zero), so there
// a zero collect is never early. Liveness: once nothing is live and every
// resolution is published, the scheduler is empty and every collect sums to
// zero, so each worker returns at its next poll.
func RunDynamicConcurrent(p DynamicProblem, seeds []sched.Item, s sched.Concurrent, opts Options) (DynamicStats, error) {
	if p == nil {
		return DynamicStats{}, ErrNilProblem
	}
	if s == nil {
		return DynamicStats{}, ErrNilScheduler
	}
	if opts.Workers < 1 {
		return DynamicStats{}, fmt.Errorf("%w: got %d", ErrNoWorkers, opts.Workers)
	}
	if opts.BatchSize < 0 {
		return DynamicStats{}, fmt.Errorf("%w: got %d", ErrBadBatch, opts.BatchSize)
	}
	batch := opts.BatchSize
	if batch == 0 {
		batch = DefaultBatchSize
	}
	if opts.Tunable != nil {
		batch = opts.Tunable.Batch()
	}

	// One batch insert for the seeds: batch implementations preserve
	// intra-batch order where order is meaningful (an exact FIFO dispenses
	// them exactly as seeded) and shard internally where spreading matters.
	s.InsertBatch(seeds)
	seeded := int64(len(seeds))

	states := make([]workerSlot, opts.Workers)
	var canceled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workerLoop(p, s, batch, opts.Tunable, seeded, states, w, opts.Cancel, &canceled)
		}(w)
	}
	wg.Wait()

	if canceled.Load() {
		return DynamicStats{}, fmt.Errorf("%w with %d items outstanding", ErrCanceled, seeded+sumBalances(states))
	}
	if remaining := seeded + sumBalances(states); remaining != 0 && !p.Done() {
		return DynamicStats{}, fmt.Errorf("%w: %d items unresolved", ErrStuck, remaining)
	}

	var res DynamicStats
	for w := range states {
		res.add(states[w].DynamicStats)
	}
	return res, nil
}

func workerLoop(p DynamicProblem, s sched.Concurrent, batch int, tun *TunableOptions, seeded int64, states []workerSlot, self int, cancel <-chan struct{}, canceled *atomic.Bool) {
	ws := &states[self]
	// The worker's view of the scheduler: the worker-affine handle when the
	// scheduler keeps per-worker state (the MultiQueue's home shards and
	// private random streams), the shared scheduler otherwise.
	s = sched.ForWorker(s, self, len(states))
	// Pop buffer and emitter come from the cross-run scratch pool, so a
	// steady stream of executions reuses warm buffers instead of re-making
	// them per run.
	sc := getScratch(batch)
	buf := sc.buf
	em := &sc.em
	em.Worker = self
	defer func() {
		ws.Requeues = em.requeues
		sc.buf = buf
		putScratch(sc)
	}()
	var backoff idleBackoff
	// resolved counts items handled (expanded or dropped as stale) whose -1
	// has not been published yet. Unpublished resolutions only make the
	// global balance sum overcount live items, which is always safe.
	var resolved int64

	// flush publishes the emitted items and then inserts them — in that
	// order, so the balance sum never undercounts items that are already
	// poppable. The worker's pending resolutions ride along in the same
	// atomic add.
	flush := func() {
		if len(em.items) == 0 && resolved == 0 {
			return
		}
		ws.Emitted += int64(len(em.items))
		ws.balance.Add(int64(len(em.items)) - resolved)
		resolved = 0
		if len(em.items) > 0 {
			s.InsertBatch(em.items)
			em.Reset()
		}
	}

	for {
		// Pick up a retuned batch size at the episode boundary; the flush
		// threshold follows the buffer (no-op without a tunable).
		buf = episodeBatch(tun, buf)
		batch = len(buf)
		if p.Done() {
			flush()
			return
		}
		// One non-blocking cancellation check per batch episode; flush
		// publishes the worker's balance so the outstanding-item count stays
		// meaningful for the abort report. A nil channel is never ready.
		select {
		case <-cancel:
			flush()
			canceled.Store(true)
			return
		default:
		}
		n := s.ApproxPopBatch(buf)
		if n == 0 {
			ws.EmptyPolls++
			// Every episode ends with a flush, so nothing is unpublished here.
			if seeded+sumBalances(states) == 0 {
				return
			}
			backoff.wait()
			continue
		}
		backoff.reset()

		items := buf[:n]
		sortBatch(items)
		requeuesBefore := em.requeues
		for _, it := range items {
			ws.Pops++
			if p.Stale(it.Task, it.Priority) {
				ws.StalePops++
				resolved++
				continue
			}
			p.Expand(it.Task, it.Priority, em)
			resolved++
			if len(em.items) >= batch {
				flush()
			}
		}
		flush()
		if em.requeues-requeuesBefore == int64(n) && len(states) > 1 {
			// Every item of the episode was requeued: each one waits on a
			// blocker another worker holds in flight, so re-popping
			// immediately would spin on the same minima until that worker runs
			// again — with more goroutines than cores, potentially a whole
			// scheduling slice of pure churn (the worker-affine multiqueue's
			// sampling accuracy makes it especially good at re-finding the
			// minima it just re-inserted). Yield the P so the blocker's owner
			// can finish. With a single worker the blockers are still in the
			// scheduler — later pops deliver them, and yielding would only
			// hand the P to unrelated goroutines.
			runtime.Gosched()
		}
	}
}

// sortBatch orders a delivered batch by scheduling priority, so intra-batch
// dependencies are handled in dependency order (a blocked task whose blocker
// sits later in the same batch would otherwise always be requeued) and so an
// exact scheduler's batches replay the sequential order. Batches arrive
// mostly sorted — heap-backed schedulers pop minima in increasing order and
// FIFO batches are seeded in priority order — so insertion sort runs in
// effectively linear time.
func sortBatch(items []sched.Item) {
	for i := 1; i < len(items); i++ {
		it := items[i]
		j := i - 1
		for j >= 0 && it.Less(items[j]) {
			items[j+1] = items[j]
			j--
		}
		items[j+1] = it
	}
}

// Idle backoff thresholds: a worker that keeps finding the scheduler empty
// first busy-spins (refills usually arrive within nanoseconds), then yields
// its P, then sleeps with exponentially growing duration. Sleeping workers
// stop burning CPU while the last items drain, at a bounded cost to wakeup
// latency.
const (
	backoffSpinLimit  = 32
	backoffYieldLimit = 64
	backoffSleepCap   = 128 * time.Microsecond
)

// idleBackoff tracks consecutive empty polls and escalates the waiting
// strategy accordingly.
type idleBackoff struct {
	idle int
}

func (b *idleBackoff) reset() { b.idle = 0 }

func (b *idleBackoff) wait() {
	b.idle++
	switch {
	case b.idle <= backoffSpinLimit:
		// Busy-spin: cheapest reaction to a transient empty.
	case b.idle <= backoffYieldLimit:
		runtime.Gosched()
	default:
		d := time.Microsecond << uint(min(b.idle-backoffYieldLimit-1, 7))
		if d > backoffSleepCap {
			d = backoffSleepCap
		}
		time.Sleep(d)
	}
}
