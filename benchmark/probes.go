package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"relaxsched/internal/api"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/multiqueue"
	"relaxsched/internal/service"
	"relaxsched/internal/wal"
	"relaxsched/internal/workload"
)

// Layer probes: each times calls into one layer's public functions with
// nothing else running, which gives the layer's own cost a floor that the
// span ledger of the loaded run can be read against.

const (
	// seqModelK is the relaxation factor of the sequential-model probes:
	// exact counts that must not move when a change only makes things
	// faster.
	seqModelK = 16
	// churnOccupancy is the steady number of items the churn probe keeps
	// in the scheduler.
	churnOccupancy = 1 << 16
	// probeSeedSalt decorrelates the probes' scheduler streams from the
	// workload's own seed consumers.
	probeSeedSalt = 0x9e3779b97f4a7c15
)

func permutedItems(n int, seed uint64) []sched.Item {
	perm := rng.New(seed).Perm32(n)
	items := make([]sched.Item, n)
	for i := range items {
		items[i] = sched.Item{Task: int32(i), Priority: perm[i]}
	}
	return items
}

// probeDrain is the static framework's use of the scheduler: insert all n
// items, then drain them in batches from `threads` worker handles. It
// returns nanoseconds per item for insert plus drain.
func probeDrain(n, threads int, seed uint64) float64 {
	items := permutedItems(n, seed)
	mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*threads, n, seed)
	runtime.GC()
	t0 := time.Now()
	var wg sync.WaitGroup
	chunk := (n + threads - 1) / threads
	for w := 0; w < threads; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, n)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := sched.ForWorker(mq, w, threads)
			for ; lo < hi; lo += execBatch {
				h.InsertBatch(items[lo:min(lo+execBatch, hi)])
			}
		}(w)
	}
	wg.Wait()
	var popped atomic.Int64
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := sched.ForWorker(mq, w, threads)
			out := make([]sched.Item, execBatch)
			for popped.Load() < int64(n) {
				if got := h.ApproxPopBatch(out); got > 0 {
					popped.Add(int64(got))
				} else {
					runtime.Gosched()
				}
			}
		}(w)
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// probeChurn is the dynamic engine's use: at a steady occupancy every
// worker pops a batch and re-inserts it at raised priorities. It returns
// nanoseconds per item popped and re-inserted.
func probeChurn(threads int, seed uint64) float64 {
	const perWorker = 1 << 20
	mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor*threads, churnOccupancy, seed)
	mq.InsertBatch(permutedItems(churnOccupancy, seed))
	runtime.GC()
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := sched.ForWorker(mq, w, threads)
			out := make([]sched.Item, execBatch)
			for done := 0; done < perWorker; {
				got := h.ApproxPopBatch(out)
				if got == 0 {
					runtime.Gosched()
					continue
				}
				for i := range out[:got] {
					out[i].Priority += churnOccupancy
				}
				h.InsertBatch(out[:got])
				done += got
			}
		}(w)
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / float64(perWorker*threads)
}

// probeSeqModelRankError drains a seeded sequential-model MultiQueue
// under sched.Instrumented and returns the mean rank error (mean rank
// minus one). It is a count: equal seeds give equal values.
func probeSeqModelRankError(seed uint64) float64 {
	const n = 1 << 16
	s := sched.NewInstrumented(multiqueue.NewSequential(seqModelK, n, rng.New(seed)), n)
	for _, it := range permutedItems(n, seed) {
		s.Insert(it)
	}
	for !s.Empty() {
		s.ApproxGetMin()
	}
	return s.Metrics().MeanRank - 1
}

// execProbes fills the sched and core per-layer metrics of an exec
// workload.
func execProbes(res *runResult, cfg execConfig, st *execState, seed uint64, threads int) error {
	maxTasks := 0
	for _, inst := range st.insts {
		maxTasks = max(maxTasks, inst.NumTasks())
	}
	seed ^= probeSeedSalt
	var drain []float64
	for r := 0; r < 3; r++ {
		drain = append(drain, probeDrain(maxTasks, threads, seed+uint64(r)))
	}
	res.Values["sched.drain_ns_per_item"] = median(drain)
	res.Values["sched.churn_ns_per_item"] = probeChurn(threads, seed)
	res.Values["sched.seqmodel_rank_error_mean"] = probeSeqModelRankError(seed)

	// The paper's extra iterations: one seeded sequential-model execution
	// per algorithm at k = seqModelK.
	var wasted int64
	var w1 float64
	for i, inst := range st.insts {
		out, cost, err := inst.RunRelaxed(multiqueue.NewSequential(seqModelK, inst.NumTasks(), rng.New(seed)))
		if err == nil {
			err = inst.Matches(st.refs[i], out)
		}
		if err != nil {
			return fmt.Errorf("sequential-model %s: %w", cfg.Cases[i].Metric, err)
		}
		wasted += cost.Wasted

		// ROADMAP's 1-worker gap: the same executor with one worker,
		// against the sequential baseline timed in set-up.
		best := time.Duration(0)
		for r := 0; r < 2; r++ {
			runtime.GC()
			mq := multiqueue.NewConcurrent(multiqueue.DefaultQueueFactor, inst.NumTasks(), seed+uint64(r))
			t0 := time.Now()
			if _, _, err := inst.RunConcurrent(mq, workload.ConcOptions{Workers: 1, BatchSize: execBatch}); err != nil {
				return fmt.Errorf("1-worker %s: %w", cfg.Cases[i].Metric, err)
			}
			if el := time.Since(t0); best == 0 || el < best {
				best = el
			}
		}
		w1 += best.Seconds()
	}
	res.Values["core.seqmodel_wasted"] = float64(wasted)
	res.Values["core.w1_overhead_x"] = w1 / st.seqS
	return nil
}

// probeJobQueue times the service's pending-job queue on its own: the
// documented default scheduler at a depth of 64, one pop and one insert
// per operation.
func probeJobQueue(seed uint64) (float64, error) {
	const depth, ops = 64, 1 << 20
	q, err := service.NewJobScheduler(service.JobSchedMultiQueue, 4, 256, seed)
	if err != nil {
		return 0, err
	}
	for i := 0; i < depth; i++ {
		q.Insert(sched.Item{Task: int32(i), Priority: jobPriority(i)})
	}
	t0 := time.Now()
	for i := depth; i < depth+ops; i++ {
		it, ok := q.ApproxGetMin()
		if !ok {
			return 0, fmt.Errorf("job queue empty at depth %d", depth)
		}
		it.Priority = jobPriority(i)
		q.Insert(it)
	}
	return float64(time.Since(t0).Nanoseconds()) / ops, nil
}

// probeInprocSubmit times Manager.Submit called directly — admission,
// queue insert and bookkeeping with no HTTP — on a scratch manager with
// the documented defaults. It returns the per-call times in microseconds.
func probeInprocSubmit(spec api.JobSpec) ([]float64, error) {
	m, err := service.NewManager(service.Options{})
	if err != nil {
		return nil, err
	}
	var us []float64
	for batch := 0; batch < 16 && err == nil; batch++ {
		for i := 0; i < 128 && err == nil; i++ {
			spec.Priority = jobPriority(i)
			t0 := time.Now()
			_, err = m.Submit(spec)
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		// Let the two workers empty the queue before the next burst so
		// admission control never refuses. The relaxed queue may leave any
		// job of the burst for last, so watch the depth, not one job.
		for err == nil && m.Metrics().Jobs.Queued > 0 {
			runtime.Gosched()
		}
	}
	if cerr := m.Close(context.Background()); err == nil {
		err = cerr
	}
	return us, err
}

// stubDispatcher accepts every job instantly, so a round trip against it
// is the floor of one HTTP exchange plus JSON both ways.
type stubDispatcher struct {
	api.Dispatcher
	next atomic.Int64
}

func (s *stubDispatcher) Submit(_ context.Context, spec api.JobSpec) (api.JobStatus, error) {
	return api.JobStatus{ID: s.next.Add(1), State: api.StateQueued, Spec: spec}, nil
}

// probeStubRT returns the per-call microseconds of Client.Submit against
// api.NewHandler over the stub, on a loopback listener.
func probeStubRT(spec api.JobSpec) ([]float64, error) {
	srv, url, err := serveLoopback(api.NewHandler(&stubDispatcher{}))
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	c := &api.Client{BaseURL: url, HTTP: &http.Client{Transport: tr, Timeout: opTimeout}}
	var us []float64
	for i := 0; i < 2200; i++ {
		t0 := time.Now()
		if _, err := c.Submit(context.Background(), spec); err != nil {
			return nil, err
		}
		if i >= 200 { // connection and code paths warm
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return us, nil
}

// submitBytes is the mean size of the submit request body over one full
// cycle of the priorities the generator uses — a count, not a timing.
func submitBytes(w *svcWorkload) (float64, error) {
	total := 0
	for i := 0; i < prioritySpread; i++ {
		b, err := json.Marshal(w.spec(i))
		if err != nil {
			return 0, err
		}
		total += len(b)
	}
	return float64(total) / prioritySpread, nil
}

// probeWALAlone appends accept and completion records for a fixed set of
// jobs to a scratch log from one caller: each AppendAccepted pays a whole
// fsync (no cohort to share it with), and the bytes the log grew by per
// job are an exact count.
func probeWALAlone(w *svcWorkload, tmpRoot string) (appendUs []float64, bytesPerJob float64, err error) {
	const jobs = 256
	dir, err := os.MkdirTemp(tmpRoot, "wal-probe-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "log")})
	if err != nil {
		return nil, 0, err
	}
	defer log.Close()
	for i := 0; i < jobs; i++ {
		t0 := time.Now()
		if err := log.AppendAccepted(int64(i+1), w.spec(i)); err != nil {
			return nil, 0, err
		}
		appendUs = append(appendUs, float64(time.Since(t0).Nanoseconds())/1e3)
		if err := log.AppendCompleted(int64(i+1), wal.OutcomeDone); err != nil {
			return nil, 0, err
		}
	}
	return appendUs, float64(log.Stats().Bytes) / jobs, nil
}
