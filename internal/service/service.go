// Package service is the long-running job-execution subsystem behind
// cmd/relaxd: a job manager whose pending queue is an internal/sched
// scheduler, a worker pool executing registry workloads through
// workload.RunModeContext, a size-bounded graph cache keyed by canonical
// generator spec, and admission control with graceful drain.
//
// The design point is the paper's thesis applied at macro scale: the
// pending-job queue is a (possibly relaxed) priority scheduler — the same
// multiqueue/kbounded/exact implementations the task executors use — so the
// service trades a bounded amount of job-ordering error for queue
// throughput, and *measures* that trade: every dispatch records the job's
// rank among all pending jobs (the paper's rank error, at job granularity)
// and its queue latency, surfaced in the /metrics snapshot.
//
// Concurrency model: all queue and bookkeeping state lives under one mutex;
// workers block on a condition variable when the queue is empty. Queue
// operations are microseconds against jobs that run for milliseconds to
// seconds, so a single lock is nowhere near the bottleneck — the executors
// behind the jobs are where the scalable concurrency lives.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sync"
	"time"

	"relaxsched/internal/api"
	"relaxsched/internal/control"
	"relaxsched/internal/core"
	"relaxsched/internal/metricsexport"
	"relaxsched/internal/ranktrack"
	"relaxsched/internal/sched"
	"relaxsched/internal/sched/kbounded"
	"relaxsched/internal/trace"
	"relaxsched/internal/wal"
	"relaxsched/internal/workload"
)

// Admission-control errors. The HTTP layer maps them to 429 and 503.
var (
	// ErrQueueFull rejects a submission because the pending queue is at its
	// admission bound.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining rejects a submission because the manager is shutting
	// down.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrUnknownJob reports a status query for an id the manager has no
	// record of (never assigned, or evicted by the finished-job retention
	// bound).
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrLogUnavailable rejects a submission because the write-ahead log
	// can no longer promise durability (a sync failed earlier): the node
	// refuses admission rather than hand out acknowledgments it cannot
	// honor across a crash.
	ErrLogUnavailable = errors.New("service: job log unavailable")
)

// Options configures a Manager. Zero values select the documented defaults.
type Options struct {
	// Workers is the number of goroutines executing jobs (default 2).
	Workers int
	// QueueDepth bounds the pending-job queue; submissions beyond it are
	// rejected with ErrQueueFull (default 256).
	QueueDepth int
	// JobSched selects the pending-queue scheduler: exact, multiqueue,
	// kbounded, fifo (default multiqueue).
	JobSched string
	// JobSchedK is the relaxation factor for multiqueue/kbounded
	// (default 4).
	JobSchedK int
	// CacheCapacity bounds the graph cache's entry count; 0 selects the
	// default 8, negative disables caching.
	CacheCapacity int
	// Seed drives the relaxed job schedulers' randomness.
	Seed uint64
	// RetainJobs bounds how many finished jobs keep their status queryable;
	// the oldest finished jobs are forgotten first (default 65536).
	RetainJobs int

	// WALDir, when set, enables the write-ahead job log (internal/wal) in
	// that directory: accepted jobs are fsynced before the acknowledgment,
	// terminal marks before the terminal state is visible, and boot
	// replays accepted-but-unfinished jobs back into the queue at their
	// original priority. Empty disables durability (the pre-WAL behavior).
	WALDir string
	// WALSegmentBytes overrides the log's segment-rotation threshold
	// (default 4 MiB); tests use small values to exercise rotation.
	WALSegmentBytes int64

	// RankSLO is the adaptive controller's bound on the windowed mean job
	// rank error (default 2); P99SLO is its p99 queue-latency target
	// (default 5s); ControlInterval is the control-loop sampling period
	// (default 250ms). All three apply only with JobSched "auto".
	RankSLO         float64
	P99SLO          time.Duration
	ControlInterval time.Duration

	// Logger receives the manager's structured log output; every job-scoped
	// line carries job_id and trace_id. Nil discards (library default —
	// relaxd always injects one).
	Logger *slog.Logger
	// TraceCapacity bounds the per-job lifecycle trace ring served by
	// GET /v1/jobs/{id}/trace; the oldest traces are evicted first
	// (default trace.DefaultCapacity).
	TraceCapacity int

	// startPaused starts the manager without its worker pool (and, under
	// JobSched "auto", without its control loop), so tests can fill the
	// queue deterministically (admission control, 429 paths). In-package
	// only by design.
	startPaused bool
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 256
	}
	if o.JobSched == "" {
		o.JobSched = JobSchedMultiQueue
	}
	if o.JobSchedK == 0 {
		o.JobSchedK = 4
	}
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 8
	}
	if o.RetainJobs == 0 {
		o.RetainJobs = 65536
	}
	if o.RankSLO == 0 {
		o.RankSLO = 2
	}
	if o.P99SLO == 0 {
		o.P99SLO = 5 * time.Second
	}
	if o.ControlInterval == 0 {
		o.ControlInterval = 250 * time.Millisecond
	}
	if o.Logger == nil {
		o.Logger = trace.DiscardLogger()
	}
	return o
}

// Manager owns the job queue, the worker pool and the graph cache.
type Manager struct {
	opts Options

	runCtx    context.Context // canceled on forced shutdown; aborts in-flight jobs
	runCancel context.CancelFunc
	cache     *graphCache
	started   time.Time
	wg        sync.WaitGroup

	// Observability: the structured logger (job-scoped lines carry job_id
	// and trace_id), the bounded per-job lifecycle trace ring behind
	// GET /v1/jobs/{id}/trace, and the log-bucketed latency histograms
	// behind the latency summaries, the Prometheus exposition and the
	// control loop's p99. All four are internally synchronized and are
	// used outside mu.
	logger    *slog.Logger
	rec       *trace.Recorder
	queueHist *metricsexport.Histogram
	execHist  *metricsexport.Histogram

	// Adaptive-relaxation machinery, set only under JobSched "auto": the
	// AIMD controller, the retunable queue it steers, and the shared
	// executor batch target every in-flight run re-reads. The control loop
	// has its own stop channel and WaitGroup because Close must stop it
	// before (not while) waiting out the job workers.
	ctrl      *control.Controller
	autoQueue *kbounded.Queue
	tunable   *core.TunableOptions
	ctrlStop  chan struct{}
	ctrlOnce  sync.Once
	ctrlWG    sync.WaitGroup

	// wlog is the write-ahead job log, nil without Options.WALDir. Its
	// appends fsync and therefore never run under mu; Submit holds a
	// reservation (reserved) for the admission slot while the accept
	// record syncs outside the lock.
	wlog *wal.WAL

	mu      sync.Mutex
	cond    *sync.Cond
	queue   sched.Scheduler
	tracker ranktrack.Tracker
	// jobs holds the live (queued and running) jobs; retainLocked moves a
	// finished job into the pointer-free finished store.
	jobs     map[int64]*job
	finished *finishedStore
	nextID   int64
	pending  int
	reserved int
	running  int
	counts   api.JobCounts
	cost     api.CostTotals
	rank     ranktrack.Stats
	closed   bool // no new submissions; workers drain the queue
	aborted  bool // forced: workers stop popping

	// Control-loop bookkeeping (JobSched "auto" only, under mu):
	// ctrlStatus is the latest controller snapshot for Metrics;
	// lastRankCount/lastRankSum and lastQueueCounts window the cumulative
	// rank stats and queue-latency histogram so each control step sees
	// only its own window.
	ctrlStatus      control.Status
	lastRankCount   int64
	lastRankSum     float64
	lastQueueCounts []int64
}

// NewManager validates the options, builds the job scheduler and starts the
// worker pool. Callers must Close the manager to stop the workers.
func NewManager(opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	if opts.Workers < 1 {
		return nil, fmt.Errorf("service: worker count must be at least 1, got %d", opts.Workers)
	}
	if opts.QueueDepth < 1 {
		return nil, fmt.Errorf("service: queue depth must be at least 1, got %d", opts.QueueDepth)
	}
	var (
		ctrl      *control.Controller
		autoQueue *kbounded.Queue
		tunable   *core.TunableOptions
		queue     sched.Scheduler
	)
	if opts.JobSched == JobSchedAuto {
		// The adaptive mode owns its queue construction: the controller picks
		// the starting point (k=1, batch=1 — start exact, earn relaxation),
		// and the manager keeps the concrete *kbounded.Queue so the control
		// loop can retune it through SetK. MaxK is capped at the queue depth:
		// a rank bound beyond the deepest possible queue buys nothing.
		c, err := control.New(control.Config{
			RankSLO:  opts.RankSLO,
			P99SLOMs: float64(opts.P99SLO.Milliseconds()),
			MaxK:     min(control.DefaultMaxK, opts.QueueDepth),
		})
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		st := c.Status()
		ctrl = c
		autoQueue = kbounded.New(st.K, opts.QueueDepth)
		tunable = core.NewTunable(st.Batch)
		queue = autoQueue
	} else {
		q, err := NewJobScheduler(opts.JobSched, opts.JobSchedK, opts.QueueDepth, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		queue = q
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:      opts,
		runCtx:    ctx,
		runCancel: cancel,
		cache:     newGraphCache(opts.CacheCapacity),
		started:   time.Now(),
		logger:    opts.Logger,
		rec:       trace.NewRecorder(opts.TraceCapacity),
		queueHist: metricsexport.NewHistogram(),
		execHist:  metricsexport.NewHistogram(),
		ctrl:      ctrl,
		autoQueue: autoQueue,
		tunable:   tunable,
		queue:     queue,
		jobs:      make(map[int64]*job),
		finished:  newFinishedStore(opts.RetainJobs),
		nextID:    1,
	}
	m.cond = sync.NewCond(&m.mu)
	if m.ctrl != nil {
		m.ctrlStop = make(chan struct{})
		m.ctrlStatus = m.ctrl.Status()
	}
	if opts.WALDir != "" {
		if err := m.openLog(); err != nil {
			cancel()
			return nil, err
		}
	}
	if opts.startPaused {
		return m, nil
	}
	for w := 0; w < opts.Workers; w++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.worker()
		}()
	}
	if m.ctrl != nil {
		m.ctrlWG.Add(1)
		go func() {
			defer m.ctrlWG.Done()
			m.controlLoop()
		}()
	}
	return m, nil
}

// Placeholder errors for terminal jobs recovered from the log: the marks
// record the outcome kind, not the original message.
var (
	errRecoveredFailed   = errors.New("failed before restart (recovered from job log; original error not retained)")
	errRecoveredCanceled = errors.New("canceled before restart (recovered from job log)")
)

// openLog opens the write-ahead log and replays its contents into the
// manager: jobs with a durable terminal mark become queryable finished
// records again (result-less, flagged recovered), and accepted jobs with
// no mark re-enter the queue at their original priority — so the relaxed
// queue's rank accounting picks up exactly the pending set the crashed
// process had admitted. Runs before the worker pool starts, so no lock is
// held.
func (m *Manager) openLog() error {
	w, replay, err := wal.Open(wal.Options{Dir: m.opts.WALDir, SegmentBytes: m.opts.WALSegmentBytes})
	if err != nil {
		return fmt.Errorf("service: opening job log: %w", err)
	}
	m.wlog = w
	now := time.Now()
	for _, tj := range replay.Terminal {
		j := &job{id: tj.ID, spec: tj.Spec, submitted: now, recovered: true}
		switch {
		case tj.Kind == wal.KindCanceled:
			j.state = api.StateCanceled
			j.err = errRecoveredCanceled
			m.counts.Canceled++
		case tj.Outcome == wal.OutcomeFailed:
			j.state = api.StateFailed
			j.err = errRecoveredFailed
			m.counts.Failed++
		default:
			j.state = api.StateDone
			m.counts.Done++
		}
		m.counts.Submitted++
		m.finished.put(j)
	}
	for _, rj := range replay.Unfinished {
		// A replayed job gets a fresh trace ID — the pre-crash one was never
		// persisted — so its re-execution is still greppable end to end.
		j := &job{id: rj.ID, spec: rj.Spec, state: api.StateQueued, submitted: now, recovered: true, traceID: trace.NewID()}
		m.jobs[j.id] = j
		m.rec.Begin(j.id, j.traceID)
		m.rec.Next(j.id, "queued", "recovered from job log")
		m.logger.Info("job recovered from log", "job_id", j.id, "trace_id", j.traceID,
			"workload", j.spec.Workload, "mode", j.spec.Mode)
		it := sched.Item{Task: int32(j.id), Priority: rj.Spec.Priority}
		m.queue.Insert(it)
		m.tracker.Insert(it)
		m.pending++
		m.counts.Submitted++
	}
	if replay.MaxID >= m.nextID {
		m.nextID = replay.MaxID + 1
	}
	return nil
}

// controlLoop drives the adaptive controller: every ControlInterval it takes
// one sample→decide→apply step until stopControl fires.
func (m *Manager) controlLoop() {
	t := time.NewTicker(m.opts.ControlInterval)
	defer t.Stop()
	for {
		select {
		case <-m.ctrlStop:
			return
		case <-t.C:
			m.controlStep()
		}
	}
}

// controlStep runs one control cycle: sample the windowed rank error, queue
// depth and p99 queue latency; ask the controller for a decision; apply it to
// the queue's dispatch bound and the shared executor batch target. Factored
// out of controlLoop so tests can step the loop deterministically.
func (m *Manager) controlStep() {
	m.mu.Lock()
	// Windowed mean rank error: the cumulative stats store rank−1 per
	// dispatch, so the delta sum over the delta count is exactly the
	// window's mean rank error. A window with no dispatches carries no rank
	// signal (-1 tells the controller to skip the rank check).
	rankErr := -1.0
	if dc := m.rank.Count - m.lastRankCount; dc > 0 {
		rankErr = (m.rank.Sum - m.lastRankSum) / float64(dc)
	}
	m.lastRankCount = m.rank.Count
	m.lastRankSum = m.rank.Sum
	// Windowed p99 queue latency: the histogram's bucket counts minus the
	// previous step's (only the counts are windowed, and only the p99 is
	// read). A window with no dispatches summarizes to 0, which the
	// controller reads as "no samples" rather than re-judging old ones.
	window := m.queueHist.Snapshot()
	lifetime := window.Counts
	window.Counts = slices.Clone(lifetime)
	for i, c := range m.lastQueueCounts {
		window.Counts[i] -= c
	}
	m.lastQueueCounts = lifetime
	d := m.ctrl.Step(control.Sample{
		QueueDepth: m.pending,
		QueueCap:   m.opts.QueueDepth,
		RankErr:    rankErr,
		P99Ms:      metricsexport.Summarize(window).P99Ms,
	})
	if d.K != m.autoQueue.K() {
		m.autoQueue.SetK(d.K)
	}
	m.ctrlStatus = m.ctrl.Status()
	m.mu.Unlock()
	// The batch target is atomic; in-flight executors re-read it per batch
	// episode, no lock needed.
	m.tunable.SetBatch(d.Batch)
}

// stopControl stops the control loop, if any. It runs on its own stop
// channel and WaitGroup — not m.wg — because Close must stop it before (not
// while) waiting out the job workers; it is idempotent, like Close.
func (m *Manager) stopControl() {
	if m.ctrl == nil {
		return
	}
	m.ctrlOnce.Do(func() { close(m.ctrlStop) })
	m.ctrlWG.Wait()
}

// Submit validates a job spec and enqueues it, returning the queued job's
// status (including its assigned id). Admission control rejects with
// ErrQueueFull when the pending queue is at its bound and ErrDraining after
// Close has begun; both leave no trace beyond the rejection counter. With a
// write-ahead log, the accept record is fsynced before Submit returns —
// the acknowledgment the caller hands out is the durability guarantee.
func (m *Manager) Submit(spec api.JobSpec) (api.JobStatus, error) {
	return m.SubmitTraced(spec, "")
}

// SubmitTraced is Submit under a caller-supplied trace ID (the HTTP layer
// forwards the request's X-Relax-Trace-Id); empty mints a fresh one. The
// ID is stamped on the job's lifecycle trace and every one of its log
// lines.
func (m *Manager) SubmitTraced(spec api.JobSpec, traceID string) (api.JobStatus, error) {
	if traceID == "" {
		traceID = trace.NewID()
	}
	if err := validateSpec(spec); err != nil {
		return api.JobStatus{}, err
	}
	m.mu.Lock()
	if m.closed {
		m.counts.Rejected++
		m.mu.Unlock()
		return api.JobStatus{}, ErrDraining
	}
	// reserved counts submissions whose accept record is still syncing:
	// they hold their admission slot so a burst of in-flight fsyncs cannot
	// overshoot the queue bound.
	if m.pending+m.reserved >= m.opts.QueueDepth {
		m.counts.Rejected++
		m.mu.Unlock()
		return api.JobStatus{}, ErrQueueFull
	}
	if m.nextID > math.MaxInt32 {
		// Job ids ride in sched.Item.Task (int32). Two billion jobs into a
		// process's life, refusing is safer than wrapping.
		m.counts.Rejected++
		m.mu.Unlock()
		return api.JobStatus{}, fmt.Errorf("service: job id space exhausted")
	}
	id := m.nextID
	m.nextID++
	// The trace opens before the WAL sync so the accept span covers the
	// durability wait; a rejection below closes it with a terminal marker.
	m.rec.Begin(id, traceID)

	if m.wlog != nil {
		m.reserved++
		m.mu.Unlock()
		// The fsync (group-committed with concurrent submissions) runs
		// outside the manager lock; dispatch proceeds concurrently.
		err := m.wlog.AppendAccepted(id, spec)
		m.mu.Lock()
		m.reserved--
		if err != nil {
			m.counts.Rejected++
			m.mu.Unlock()
			m.rec.Finish(id, "rejected", "job log unavailable")
			return api.JobStatus{}, fmt.Errorf("%w: %v", ErrLogUnavailable, err)
		}
		if m.closed {
			// Drain began while the accept record synced. The record is
			// durable, so cancel it durably too — otherwise a later boot
			// would resurrect a job whose submitter was told "draining".
			m.counts.Rejected++
			m.mu.Unlock()
			m.rec.Finish(id, "rejected", "drain began during accept sync")
			if werr := m.wlog.AppendCanceled(id); werr != nil {
				// The compensating mark could not be persisted (poisoned
				// log); after a restart this job will replay and execute
				// even though its submitter was rejected. There is nobody
				// left to hand the error to, so log it for the operator.
				m.logger.Error("drain-rejected job: cancel mark not persisted, job may execute after restart",
					"job_id", id, "trace_id", traceID, "err", werr)
			}
			return api.JobStatus{}, ErrDraining
		}
		m.rec.Next(id, "wal-synced", "")
	}

	j := &job{
		id:        id,
		spec:      spec,
		state:     api.StateQueued,
		submitted: time.Now(),
		traceID:   traceID,
	}
	m.jobs[j.id] = j
	it := sched.Item{Task: int32(j.id), Priority: spec.Priority}
	m.queue.Insert(it)
	m.tracker.Insert(it)
	m.pending++
	m.counts.Submitted++
	m.rec.Next(id, "queued", "")
	m.cond.Signal()
	st := j.status()
	m.mu.Unlock()
	m.logger.Debug("job accepted", "job_id", id, "trace_id", traceID,
		"workload", spec.Workload, "mode", spec.Mode, "priority", spec.Priority)
	return st, nil
}

// Status returns a job's current status by id.
func (m *Manager) Status(id int64) (api.JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		return j.status(), nil
	}
	if st, ok := m.finished.get(id); ok {
		return st, nil
	}
	return api.JobStatus{}, fmt.Errorf("%w: id %d", ErrUnknownJob, id)
}

// Metrics returns a consistent snapshot of the service counters.
func (m *Manager) Metrics() api.Metrics {
	cache := m.cache.Stats()
	queueHist, execHist := m.queueHist.Snapshot(), m.execHist.Snapshot()
	var walStats *api.WALStats
	if m.wlog != nil {
		s := m.wlog.Stats()
		walStats = &api.WALStats{
			Appends:      s.Appends,
			Fsyncs:       s.Fsyncs,
			ReplayedJobs: s.ReplayedJobs,
			Segments:     s.Segments,
			Compacted:    s.Compacted,
			Bytes:        s.Bytes,
			TornTail:     s.TornTail,
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	counts := m.counts
	counts.Queued = int64(m.pending)
	counts.Running = int64(m.running)
	re := api.RankErrorStats{Count: m.rank.Count, Mean: m.rank.Mean(), Max: m.rank.Max}
	jobSchedK := m.opts.JobSchedK
	var ctrlStats *api.ControllerStats
	if m.ctrl != nil {
		// Under auto the configured K is meaningless — the live k lives in
		// the controller section. Reporting 0 here also keeps a cluster of
		// auto nodes from aggregating to JobSched "mixed" when their live ks
		// momentarily diverge.
		jobSchedK = 0
		cfg := m.ctrl.Config()
		st := m.ctrlStatus
		ctrlStats = &api.ControllerStats{
			Enabled:        true,
			K:              st.K,
			Batch:          st.Batch,
			RankSLO:        cfg.RankSLO,
			P99SLOMs:       cfg.P99SLOMs,
			Steps:          st.Steps,
			Widened:        st.Widened,
			Tightened:      st.Tightened,
			RankViolations: st.RankViolations,
			P99Violations:  st.P99Violations,
			LastAdjustment: st.LastAdjustment,
		}
	}
	return api.Metrics{
		UptimeSeconds:    time.Since(m.started).Seconds(),
		JobSched:         m.opts.JobSched,
		JobSchedK:        jobSchedK,
		Workers:          m.opts.Workers,
		QueueCapacity:    m.opts.QueueDepth,
		Draining:         m.closed,
		Jobs:             counts,
		Cache:            cache,
		Cost:             m.cost,
		RankError:        re,
		QueueLatency:     metricsexport.Summarize(queueHist),
		ExecLatency:      metricsexport.Summarize(execHist),
		QueueLatencyHist: queueHist,
		ExecLatencyHist:  execHist,
		Controller:       ctrlStats,
		WAL:              walStats,
	}
}

// Trace returns a job's recorded lifecycle span timeline. Jobs evicted
// from the bounded trace ring (or never admitted) report ErrUnknownJob
// even when Status still answers from the longer-lived finished store.
func (m *Manager) Trace(id int64) (api.JobTrace, error) {
	tl, ok := m.rec.Get(id)
	if !ok {
		return api.JobTrace{}, fmt.Errorf("%w: no trace for id %d", ErrUnknownJob, id)
	}
	spans := make([]api.TraceSpan, len(tl.Spans))
	for i, s := range tl.Spans {
		spans[i] = api.TraceSpan{Name: s.Name, StartNanos: s.StartNanos, EndNanos: s.EndNanos, Detail: s.Detail}
	}
	return api.JobTrace{ID: id, TraceID: tl.TraceID, StartedAt: tl.Start, Spans: spans}, nil
}

// BeginDrain stops admission without waiting: from this point submissions
// return ErrDraining and the workers run the queue dry. It is Close's
// first action; it is exported for callers that want to stop admission
// some time before they are ready to block in Close.
func (m *Manager) BeginDrain() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Close drains the manager: new submissions are rejected immediately (as
// with BeginDrain), and the workers run the already-queued jobs to
// completion. If ctx expires first, the drain turns forced — in-flight
// concurrent and relaxed executions abort (workload.RunModeContext; a
// sequential-mode job cannot be preempted and finishes on its own),
// still-queued jobs flip to StateCanceled, and Close returns ctx's error.
// Close is idempotent; every call waits for the workers to exit.
func (m *Manager) Close(ctx context.Context) error {
	m.stopControl()
	m.BeginDrain()

	workersDone := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(workersDone)
	}()

	var err error
	select {
	case <-workersDone:
	case <-ctx.Done():
		err = ctx.Err()
		m.mu.Lock()
		m.aborted = true
		m.cond.Broadcast()
		m.mu.Unlock()
		m.runCancel() // aborts in-flight RunModeContext executions
		<-workersDone
	}
	m.runCancel()

	// Whatever is still queued (forced drain only) will never run. Pop it
	// all first, make the cancel marks durable, and only then expose the
	// canceled states — the same mark-durable-before-visible order finish
	// enforces, so a crash in between re-runs the jobs on the next boot
	// instead of contradicting a cancellation a client already observed.
	var canceled []*job
	m.mu.Lock()
	for m.pending > 0 {
		it, ok := m.queue.ApproxGetMin()
		if !ok {
			break
		}
		m.tracker.Remove(it)
		m.pending--
		if j := m.jobs[int64(it.Task)]; j != nil && j.state == api.StateQueued {
			canceled = append(canceled, j)
		}
	}
	m.mu.Unlock()

	if m.wlog != nil {
		// A forced drain is a deliberate discard: mark the abandoned jobs
		// canceled durably so a later boot does not resurrect them. (After
		// SIGKILL there are no marks — that is the point: unfinished jobs
		// replay.)
		durable := 0
		for _, j := range canceled {
			werr := m.wlog.AppendCanceled(j.id)
			if werr != nil {
				// The log can no longer record cancellations (poisoned sync,
				// most likely). Leave the remaining jobs in their queued
				// state — the next boot replays and runs them, and a visible
				// "canceled" would promise the opposite — and surface the
				// failure alongside any drain-deadline error.
				err = errors.Join(err, fmt.Errorf("service: recording drain cancellations: %w", werr))
				break
			}
			durable++
		}
		canceled = canceled[:durable]
	}

	m.mu.Lock()
	for _, j := range canceled {
		j.state = api.StateCanceled
		j.err = context.Canceled
		m.counts.Canceled++
		m.retainLocked(j)
	}
	m.mu.Unlock()
	for _, j := range canceled {
		m.rec.Finish(j.id, "canceled", "forced drain discarded the queue")
		m.logger.Info("job canceled", "job_id", j.id, "trace_id", j.traceID,
			"workload", j.spec.Workload, "mode", j.spec.Mode, "reason", "forced drain")
	}

	if m.wlog != nil {
		if cerr := m.wlog.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// worker is one pool goroutine: pop → execute → record, until the queue is
// drained after Close (or immediately on a forced abort).
func (m *Manager) worker() {
	for {
		m.mu.Lock()
		for !m.aborted && !m.closed && m.pending == 0 {
			m.cond.Wait()
		}
		if m.aborted || m.pending == 0 {
			// aborted, or closed with nothing left to drain.
			m.mu.Unlock()
			return
		}
		it, ok := m.queue.ApproxGetMin()
		if !ok {
			// The scheduler and the pending count disagree — a scheduler
			// bug; give other workers a chance rather than spinning.
			m.mu.Unlock()
			return
		}
		rank := m.tracker.Remove(it)
		m.pending--
		j := m.jobs[int64(it.Task)]
		j.state = api.StateRunning
		j.queueRank = rank
		j.queueTime = time.Since(j.submitted)
		m.running++
		m.rank.Observe(rank)
		// The dispatch span records the paper's per-job quality metric right
		// where it is observed: this job's rank among all pending jobs.
		m.rec.Next(j.id, "dispatched", fmt.Sprintf("queue_rank=%d rank_err=%d", rank, rank-1))
		m.mu.Unlock()
		m.queueHist.Observe(j.queueTime.Seconds())

		m.execute(j)
	}
}

// execute runs one job end to end: graph (via the cache), execution through
// the registry's context-aware mode dispatch, optional verification, then
// result recording.
func (m *Manager) execute(j *job) {
	// The span opens pessimistically as a build; a cache hit amends the
	// name once Get reports which it was.
	m.rec.Next(j.id, "graph-build", "")
	g, hit, err := m.cache.Get(j.spec.Graph)
	if err != nil {
		m.finish(j, nil, fmt.Errorf("building graph: %w", err), 0)
		return
	}
	if hit {
		m.rec.Amend(j.id, "cache-hit", "")
	}
	d, err := workload.Lookup(j.spec.Workload)
	if err != nil {
		m.finish(j, nil, err, 0)
		return
	}
	cfg, err := runConfig(j.spec)
	if err != nil {
		m.finish(j, nil, err, 0)
		return
	}
	if m.tunable != nil && j.spec.Batch == 0 {
		// Adaptive mode steers the executor batch size too — but an explicit
		// per-job batch in the spec wins over the controller.
		cfg.Tunable = m.tunable
	}
	m.rec.Next(j.id, "executing", "")
	res, err := d.RunModeContext(m.runCtx, g, cfg, runParams(j.spec))
	if err != nil {
		m.finish(j, nil, err, 0)
		return
	}
	verified := false
	if j.spec.Verify {
		if err := res.Instance.Verify(res.Output); err != nil {
			m.finish(j, nil, fmt.Errorf("verification failed: %w", err), 0)
			return
		}
		verified = true
	}
	m.finish(j, &api.JobResult{
		Summary:         res.Output.Summary(),
		Verified:        verified,
		Pops:            res.Cost.Pops,
		StalePops:       res.Cost.StalePops,
		Wasted:          res.Cost.Wasted,
		WastedWorkLabel: d.WastedWork,
		ExecNanos:       res.Elapsed.Nanoseconds(),
		GraphCacheHit:   hit,
		Steals:          res.Cost.Steals,
		GlobalFallbacks: res.Cost.GlobalFallbacks,
		EmptyPolls:      res.Cost.EmptyPolls,
	}, nil, res.Elapsed)
}

// finish records a job's outcome and applies the finished-job retention
// bound. With a write-ahead log the terminal mark is fsynced before the
// state change becomes visible: once a client observes done, the job can
// never re-run after a crash — the no-duplicate-execution half of the
// durability contract.
func (m *Manager) finish(j *job, result *api.JobResult, err error, elapsed time.Duration) {
	if m.wlog != nil {
		var werr error
		switch {
		case err == nil:
			werr = m.wlog.AppendCompleted(j.id, wal.OutcomeDone)
		case errors.Is(err, core.ErrCanceled) || errors.Is(err, context.Canceled):
			werr = m.wlog.AppendCanceled(j.id)
		default:
			werr = m.wlog.AppendCompleted(j.id, wal.OutcomeFailed)
		}
		if werr != nil && err == nil {
			// The work ran but its completion cannot be made durable, so
			// "done" cannot be promised: report the job failed (with the
			// log error) rather than hand out a done the next boot would
			// contradict by re-running the job. The poisoned log is already
			// rejecting new admissions at this point.
			result = nil
			err = fmt.Errorf("%w: recording completion: %v", ErrLogUnavailable, werr)
		}
	}
	m.mu.Lock()
	m.running--
	switch {
	case err == nil:
		j.state = api.StateDone
		j.result = result
		m.counts.Done++
		m.cost.Pops += result.Pops
		m.cost.StalePops += result.StalePops
		m.cost.Wasted += result.Wasted
		m.cost.Steals += result.Steals
		m.cost.GlobalFallbacks += result.GlobalFallbacks
		m.cost.EmptyPolls += result.EmptyPolls
	case errors.Is(err, core.ErrCanceled) || errors.Is(err, context.Canceled):
		j.state = api.StateCanceled
		j.err = err
		m.counts.Canceled++
	default:
		j.state = api.StateFailed
		j.err = err
		m.counts.Failed++
	}
	state := j.state
	m.retainLocked(j)
	m.mu.Unlock()

	switch state {
	case api.StateDone:
		m.execHist.Observe(elapsed.Seconds())
		m.rec.Finish(j.id, "done", result.Summary)
		m.logger.Info("job done", "job_id", j.id, "trace_id", j.traceID,
			"workload", j.spec.Workload, "mode", j.spec.Mode,
			"exec_ms", float64(elapsed.Nanoseconds())/1e6,
			"queue_ms", float64(j.queueTime.Nanoseconds())/1e6,
			"queue_rank", j.queueRank, "cache_hit", result.GraphCacheHit)
	case api.StateCanceled:
		m.rec.Finish(j.id, "canceled", err.Error())
		m.logger.Info("job canceled", "job_id", j.id, "trace_id", j.traceID,
			"workload", j.spec.Workload, "mode", j.spec.Mode)
	default:
		m.rec.Finish(j.id, "failed", err.Error())
		m.logger.Warn("job failed", "job_id", j.id, "trace_id", j.traceID,
			"workload", j.spec.Workload, "mode", j.spec.Mode, "err", err)
	}
}

// retainLocked moves a finished job from the live map into the finished
// store, which forgets the oldest finished jobs beyond the retention bound.
// Callers hold m.mu.
func (m *Manager) retainLocked(j *job) {
	delete(m.jobs, j.id)
	m.finished.put(j)
}
