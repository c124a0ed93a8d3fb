package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"relaxsched/internal/api"
	"relaxsched/internal/trace"
)

// The load generator. It lives in this one process and uses one
// connection per client goroutine, so on a small box it competes with the
// system under test for CPU: absolute numbers are this box's, and
// generator lateness is reported so a starved generator shows.

const (
	// opTimeout fails a job that reached no terminal state in time. A
	// failed job's latency is reported as this bound, so it counts as
	// missing every latency percentile below it.
	opTimeout = 5 * time.Second
	// closedLoopWindow is how many jobs one saturating client keeps
	// outstanding. A strict one-at-a-time loop would measure the client's
	// round trip rather than the node, and would never build the queue
	// depth at which the job queue's relaxation shows.
	closedLoopWindow = 32
	// pollGap separates status polls of one job. The gap is spent
	// yielding, not sleeping: a timer wake-up is coarser than the jobs.
	pollGap = 200 * time.Microsecond
	// spinBefore is how long before a due time the open loop stops
	// sleeping and starts yielding. On the reference box a sleeping
	// process wakes up to 1.2 ms late whatever it asked for, so at the
	// rates used here the generator in effect always yields.
	spinBefore = 2 * time.Millisecond
)

// jobTarget is the part of api.Dispatcher the generator drives;
// *api.Client implements it, and so does the tracing wrapper below.
type jobTarget interface {
	Submit(ctx context.Context, spec api.JobSpec) (api.JobStatus, error)
	Status(ctx context.Context, id int64) (api.JobStatus, error)
}

func terminal(s api.JobState) bool {
	return s == api.StateDone || s == api.StateFailed || s == api.StateCanceled
}

// jobRecord is what the generator saw of one job. Times are offsets from
// the phase start.
type jobRecord struct {
	ID    int64
	Due   time.Duration // open loop only: when the job was due to be sent
	Sent  time.Duration
	Acked time.Duration // 202 decoded
	Done  time.Duration // terminal status observed
	Polls int
	Err   string // non-empty: the operation failed
}

func yieldUntil(t time.Time) {
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// awaitTerminal polls a job until it is terminal: once immediately, then
// every pollGap, which is spent in wait (yieldUntil for the latency
// phases, time.Sleep where only throughput is measured). It returns the
// number of polls made.
func awaitTerminal(ctx context.Context, t jobTarget, id int64, deadline time.Time, wait func(time.Time)) (int, error) {
	for polls := 1; ; polls++ {
		st, err := t.Status(ctx, id)
		if err != nil {
			return polls, fmt.Errorf("status: %w", err)
		}
		if terminal(st.State) {
			if st.State != api.StateDone {
				return polls, fmt.Errorf("job ended %s: %s", st.State, st.Error)
			}
			return polls, nil
		}
		next := time.Now().Add(pollGap)
		if next.After(deadline) {
			return polls, fmt.Errorf("no terminal state within %s", opTimeout)
		}
		wait(next)
	}
}

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// runClosedLoop saturates the target. Every client submits a window of
// closedLoopWindow jobs, then retires them in the order the service's
// priority queue is expected to finish them (priority, then submission),
// sleeping between polls of a job that is not done yet; with the window
// retired it submits the next. Retiring in submission order instead would
// park the client on whichever job drew the worst priority while the rest
// of its window sat finished, and the offered load would follow the luck
// of the priority draw rather than the node's capacity. Submission stops
// at `dur`; outstanding jobs are still followed to the end. spec(i) builds
// job i's submission.
func runClosedLoop(ctx context.Context, targets []jobTarget, spec func(i int) api.JobSpec, dur time.Duration) []jobRecord {
	var next atomic.Int64
	t0 := time.Now()
	perClient := make([][]jobRecord, len(targets))
	var wg sync.WaitGroup
	for c, t := range targets {
		wg.Add(1)
		go func(c int, t jobTarget) {
			defer wg.Done()
			var recs []jobRecord
			type pending struct {
				rec      int // index into recs
				priority uint32
			}
			for time.Since(t0) < dur {
				var window []pending
				for len(window) < closedLoopWindow && time.Since(t0) < dur {
					s := spec(int(next.Add(1) - 1))
					rec := jobRecord{Sent: time.Since(t0)}
					st, err := t.Submit(ctx, s)
					rec.Acked = time.Since(t0)
					if err != nil {
						rec.Err = fmt.Sprintf("submit: %v", err)
						rec.Done = rec.Acked
					} else {
						rec.ID = st.ID
						window = append(window, pending{len(recs), s.Priority})
					}
					recs = append(recs, rec)
				}
				sort.SliceStable(window, func(a, b int) bool { return window[a].priority < window[b].priority })
				for _, p := range window {
					rec := &recs[p.rec]
					polls, err := awaitTerminal(ctx, t, rec.ID, t0.Add(rec.Acked+opTimeout), sleepUntil)
					rec.Polls, rec.Done = polls, time.Since(t0)
					if err != nil {
						rec.Err = err.Error()
					}
				}
			}
			perClient[c] = recs
		}(c, t)
	}
	wg.Wait()
	var all []jobRecord
	for _, recs := range perClient {
		all = append(all, recs...)
	}
	return all
}

// runOpenLoop sends jobs on an absolute schedule — job i is due at
// i/rate after the phase start, whatever happened to the jobs before it.
// One client waits for each due time, submits the job and follows it to a
// terminal state. When it is still busy at a job's due time the job goes
// out late, and because latency is timed from Due the stall is charged to
// every job queued behind it.
//
// The phase uses a single client on purpose. Waiting for a due time has
// to be a yield loop (a sleeping Go program with open connections wakes
// on a 1 ms grid), and a goroutine yielding on one P while another
// client's request is in flight keeps the scheduler from polling the
// network: a quarter of the requests then take a 1.1 ms step that belongs
// to the generator, not to the system.
func runOpenLoop(ctx context.Context, t jobTarget, spec func(i int) api.JobSpec, rate float64, dur time.Duration) []jobRecord {
	interval := time.Duration(float64(time.Second) / rate)
	recs := make([]jobRecord, int(dur/interval))
	t0 := time.Now()
	for i := range recs {
		rec := &recs[i]
		rec.Due = time.Duration(i) * interval
		due := t0.Add(rec.Due)
		if wait := time.Until(due) - spinBefore; wait > 0 {
			time.Sleep(wait)
		}
		yieldUntil(due)
		rec.Sent = time.Since(t0)
		st, err := t.Submit(ctx, spec(i))
		rec.Acked = time.Since(t0)
		if err != nil {
			rec.Err = fmt.Sprintf("submit: %v", err)
			rec.Done = rec.Acked
			continue
		}
		rec.ID = st.ID
		rec.Polls, err = awaitTerminal(ctx, t, st.ID, due.Add(opTimeout), yieldUntil)
		rec.Done = time.Since(t0)
		if err != nil {
			rec.Err = err.Error()
		}
	}
	return recs
}

// latencyMs returns a job's latency from `from` to `to` in milliseconds;
// a failed job reports the operation timeout.
func latencyMs(rec jobRecord, from, to time.Duration) float64 {
	if rec.Err != "" {
		return float64(opTimeout) / float64(time.Millisecond)
	}
	return float64(to-from) / float64(time.Millisecond)
}

// tracedTarget wraps a client so every request carries a generator-minted
// trace id and is recorded as a client-side span. While the log is
// switched off it adds one atomic load per call.
type tracedTarget struct {
	inner jobTarget
	log   *spanLog
	// submitTrace remembers which trace id each job was submitted under,
	// so the job's own phase timeline can be joined to its submit spans.
	mu          sync.Mutex
	submitTrace map[int64]uint64
}

func (t *tracedTarget) Submit(ctx context.Context, spec api.JobSpec) (api.JobStatus, error) {
	if !t.log.on() {
		return t.inner.Submit(ctx, spec)
	}
	id := t.log.newTraceID(true)
	start := t.log.now()
	st, err := t.inner.Submit(trace.ContextWithID(ctx, formatTraceID(id)), spec)
	t.log.add(id, spanClientSubmit, "", start, t.log.now())
	if err == nil {
		t.mu.Lock()
		t.submitTrace[st.ID] = id
		t.mu.Unlock()
	}
	return st, err
}

func (t *tracedTarget) Status(ctx context.Context, id int64) (api.JobStatus, error) {
	if !t.log.on() {
		return t.inner.Status(ctx, id)
	}
	tid := t.log.newTraceID(false)
	start := t.log.now()
	st, err := t.inner.Status(trace.ContextWithID(ctx, formatTraceID(tid)), id)
	t.log.add(tid, spanClientStatus, "", start, t.log.now())
	return st, err
}
