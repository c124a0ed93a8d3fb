// Package gateway implements relaxgw: a cluster front for N relaxd
// backends that speaks the exact same wire API as a single node
// (api.Dispatcher over HTTP), so clients cannot tell one node from a
// cluster.
//
// Jobs route by consistent hash of their canonical graph key
// (GraphSpec.Key), which keeps each backend's LRU graph cache hot: every
// job asking for the same generated graph lands on the node that already
// built it. The cluster as a whole is then a relaxed scheduler in the
// paper's sense — each node dispenses the best job *it* holds, not the
// best job pending anywhere — and the gateway measures exactly that
// relaxation: a cluster-wide rank tracker, fed from submission order,
// reports the global rank error alongside each node's local one.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"relaxsched/internal/api"
	"relaxsched/internal/metricsexport"
	"relaxsched/internal/ranktrack"
	"relaxsched/internal/sched"
	"relaxsched/internal/trace"
)

const (
	// maxBackends bounds the cluster size: a job's global id carries its
	// owning backend index in the low 8 bits (globalID = localID*idStride
	// + index), so ids stay well inside int64 for any realistic local id.
	maxBackends = 256
	idStride    = 256

	defaultReplicas       = 128
	defaultHealthInterval = 2 * time.Second
)

// Options configures a Gateway.
type Options struct {
	// Backends are the relaxd base URLs in routing order, e.g.
	// ["http://localhost:8081", "http://localhost:8082"]. At most 256.
	Backends []string
	// Replicas is the number of virtual ring points per backend
	// (default 128).
	Replicas int
	// HealthInterval is the period of the background health checker
	// (default 2s). Zero or negative selects the default.
	HealthInterval time.Duration
	// HTTPClient overrides the backend clients' *http.Client (default:
	// the api package's shared timed client).
	HTTPClient *http.Client
	// Logger receives the gateway's structured log lines (default:
	// discard). Backend health transitions and routed submissions are
	// logged here.
	Logger *slog.Logger
}

type backend struct {
	url      string
	client   *api.Client
	healthy  atomic.Bool
	draining atomic.Bool
}

// Gateway fronts a fleet of relaxd backends behind the single-node wire
// API. It implements api.Dispatcher; serve it with Handler.
type Gateway struct {
	backends []*backend
	ring     *ring
	start    time.Time
	logger   *slog.Logger
	// hops holds the gateway's own "gateway.submit" span for each routed
	// job, keyed by global id, in a bounded ring like the backends' traces.
	hops *trace.Recorder

	stopHealth chan struct{}
	healthDone chan struct{}

	mu       sync.Mutex
	seq      int32
	pending  map[int64]sched.Item // global job id -> its tracker item
	tracker  ranktrack.Tracker
	rank     ranktrack.Stats
	draining bool
}

var _ api.Dispatcher = (*Gateway)(nil)

// New builds a gateway over opts.Backends and starts its background
// health checker; Close stops it. Backends start optimistically healthy —
// the first failed request or health probe marks them down, the next
// passing probe brings them back.
func New(opts Options) (*Gateway, error) {
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("gateway: at least one backend is required")
	}
	if len(opts.Backends) > maxBackends {
		return nil, fmt.Errorf("gateway: %d backends exceeds the limit of %d", len(opts.Backends), maxBackends)
	}
	replicas := opts.Replicas
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	interval := opts.HealthInterval
	if interval <= 0 {
		interval = defaultHealthInterval
	}

	logger := opts.Logger
	if logger == nil {
		logger = trace.DiscardLogger()
	}

	urls := make([]string, len(opts.Backends))
	seen := make(map[string]bool, len(opts.Backends))
	g := &Gateway{
		backends:   make([]*backend, len(opts.Backends)),
		start:      time.Now(),
		logger:     logger,
		hops:       trace.NewRecorder(0),
		stopHealth: make(chan struct{}),
		healthDone: make(chan struct{}),
		pending:    make(map[int64]sched.Item),
	}
	for i, raw := range opts.Backends {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" {
			return nil, fmt.Errorf("gateway: backend %d has an empty URL", i)
		}
		if seen[u] {
			return nil, fmt.Errorf("gateway: duplicate backend %s", u)
		}
		seen[u] = true
		urls[i] = u
		cli := api.NewClient(u)
		if opts.HTTPClient != nil {
			cli.HTTP = opts.HTTPClient
		}
		b := &backend{url: u, client: cli}
		b.healthy.Store(true)
		g.backends[i] = b
	}
	g.ring = newRing(urls, replicas)
	go g.healthLoop(interval)
	return g, nil
}

// Close stops the health checker. It does not touch the backends.
func (g *Gateway) Close() {
	close(g.stopHealth)
	<-g.healthDone
}

func (g *Gateway) healthLoop(interval time.Duration) {
	defer close(g.healthDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-g.stopHealth:
			return
		case <-t.C:
			g.checkHealth(interval)
		}
	}
}

// checkHealth probes every backend concurrently. A "ok" /healthz flips a
// backend (back) to healthy; a "draining" answer takes it out of the
// submit rotation but marks it alive (status polls and traces still
// route to it), and a transport failure marks it down. Transitions are
// logged so an operator can tell a drain from an outage.
func (g *Gateway) checkHealth(timeout time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, b := range g.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			status, err := b.client.Health(ctx)
			accepting := err == nil && status == api.StatusOK
			draining := err == nil && status == api.StatusDraining
			wasDraining := b.draining.Swap(draining)
			wasAccepting := b.healthy.Swap(accepting)
			if wasAccepting == accepting && wasDraining == draining {
				return
			}
			switch {
			case accepting:
				g.logger.Info("backend healthy", "backend", b.url)
			case draining:
				g.logger.Info("backend draining", "backend", b.url)
			default:
				g.logger.Warn("backend down", "backend", b.url, "status", status, "err", err)
			}
		}(b)
	}
	wg.Wait()
}

// Submit routes the job to the backend owning its graph key, walking the
// ring's failover sequence past unhealthy backends (availability over
// affinity). A backend's own rejection (queue full, invalid spec) is
// authoritative and returned as-is — spilling a queue-full rejection onto
// a non-owner would trade the graph-cache hit for a cold build, and the
// retry_after_ms hint already routes the retry back to the owner. Only
// transport failures fail over; with no reachable backend the gateway
// answers 502 backend_down. A call that failed because ctx was cancelled or
// timed out says nothing about the backend: the context error is returned
// and no backend is marked down, here and in Status, JobTrace and Workloads.
func (g *Gateway) Submit(ctx context.Context, spec api.JobSpec) (api.JobStatus, error) {
	g.mu.Lock()
	draining := g.draining
	g.mu.Unlock()
	if draining {
		return api.JobStatus{}, &api.Error{Code: api.CodeDraining, Message: "gateway: draining, not accepting jobs"}
	}
	key := spec.Graph.Key()
	for _, idx := range g.ring.sequence(key) {
		b := g.backends[idx]
		if !b.healthy.Load() {
			continue
		}
		hopStart := time.Now()
		st, err := b.client.Submit(ctx, spec)
		if err != nil {
			var e *api.Error
			if errors.As(err, &e) {
				return api.JobStatus{}, e
			}
			if cerr := ctx.Err(); cerr != nil {
				return api.JobStatus{}, cerr
			}
			b.healthy.Store(false)
			g.logger.Warn("backend down", "backend", b.url, "err", err)
			continue
		}
		st.ID = g.admit(st.ID, idx, spec.Priority)
		g.hops.Put(trace.Timeline{
			TraceID: trace.IDFromContext(ctx),
			JobID:   st.ID,
			Start:   hopStart,
			Spans: []trace.Span{{
				Name:     "gateway.submit",
				EndNanos: time.Since(hopStart).Nanoseconds(),
				Detail:   "backend=" + b.url,
			}},
		})
		g.logger.Debug("job routed",
			"job_id", st.ID,
			"trace_id", trace.IDFromContext(ctx),
			"backend", b.url,
			"workload", spec.Workload)
		return st, nil
	}
	return api.JobStatus{}, &api.Error{Code: api.CodeBackendDown, Message: "gateway: no healthy backend"}
}

// admit records a successfully placed job in the cluster-wide rank
// tracker and returns its global id. Tracker items are keyed by global
// submission sequence, so ties between equal-priority jobs break in
// submission order — the same total order a single node's queue uses.
func (g *Gateway) admit(localID int64, idx int, priority uint32) int64 {
	globalID := localID*idStride + int64(idx)
	g.mu.Lock()
	defer g.mu.Unlock()
	it := sched.Item{Task: g.seq, Priority: priority}
	g.seq++
	g.pending[globalID] = it
	g.tracker.Insert(it)
	return globalID
}

// observeDeparture measures a job's global rank the first time it is seen
// out of the queued state. Dispatch happens inside a backend, so the
// gateway observes it at the next status poll — the measured global rank
// error is therefore an upper bound as of poll time, documented in
// EXPERIMENTS.md.
func (g *Gateway) observeDeparture(globalID int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	it, ok := g.pending[globalID]
	if !ok {
		return
	}
	delete(g.pending, globalID)
	g.rank.Observe(g.tracker.Remove(it))
}

// Status polls the backend owning the job's global id. The owner is
// always tried — even when marked unhealthy — so status polls keep
// working while a backend drains; only a transport failure answers 502.
func (g *Gateway) Status(ctx context.Context, id int64) (api.JobStatus, error) {
	if id < 0 || int(id%idStride) >= len(g.backends) {
		return api.JobStatus{}, &api.Error{Code: api.CodeUnknownJob, Message: fmt.Sprintf("unknown job %d", id)}
	}
	b := g.backends[id%idStride]
	st, err := b.client.Status(ctx, id/idStride)
	if err != nil {
		var e *api.Error
		if errors.As(err, &e) {
			return api.JobStatus{}, e
		}
		if cerr := ctx.Err(); cerr != nil {
			return api.JobStatus{}, cerr
		}
		b.healthy.Store(false)
		return api.JobStatus{}, &api.Error{Code: api.CodeBackendDown, Message: fmt.Sprintf("gateway: backend %s unreachable: %v", b.url, err)}
	}
	st.ID = id
	if st.State != api.StateQueued {
		g.observeDeparture(id)
	}
	return st, nil
}

// JobTrace polls the owning backend for the job's span timeline and
// prepends the gateway's own recorded spans (the "gateway.submit" hop).
// Their offsets are rebased against the backend's timeline origin, so the
// gateway span usually starts at a negative offset — the hop began before
// the backend accepted the job. Once the bounded hop ring has evicted the
// job, the trace simply lacks the gateway span. Like Status, the owner is
// always tried even when marked unhealthy, so traces stay fetchable
// during a drain.
func (g *Gateway) JobTrace(ctx context.Context, id int64) (api.JobTrace, error) {
	if id < 0 || int(id%idStride) >= len(g.backends) {
		return api.JobTrace{}, &api.Error{Code: api.CodeUnknownJob, Message: fmt.Sprintf("unknown job %d", id)}
	}
	b := g.backends[id%idStride]
	tr, err := b.client.JobTrace(ctx, id/idStride)
	if err != nil {
		var e *api.Error
		if errors.As(err, &e) {
			return api.JobTrace{}, e
		}
		if cerr := ctx.Err(); cerr != nil {
			return api.JobTrace{}, cerr
		}
		b.healthy.Store(false)
		return api.JobTrace{}, &api.Error{Code: api.CodeBackendDown, Message: fmt.Sprintf("gateway: backend %s unreachable: %v", b.url, err)}
	}
	tr.ID = id
	if hop, ok := g.hops.Get(id); ok {
		off := hop.Start.Sub(tr.StartedAt).Nanoseconds()
		spans := make([]api.TraceSpan, 0, len(hop.Spans)+len(tr.Spans))
		for _, s := range hop.Spans {
			spans = append(spans, api.TraceSpan{Name: s.Name, StartNanos: off + s.StartNanos, EndNanos: off + s.EndNanos, Detail: s.Detail})
		}
		tr.Spans = append(spans, tr.Spans...)
	}
	return tr, nil
}

// Workloads lists the registry from the first reachable backend — every
// relaxd build serves the same registry.
func (g *Gateway) Workloads(ctx context.Context) ([]api.WorkloadInfo, error) {
	for _, b := range g.backends {
		infos, err := b.client.Workloads(ctx)
		if err != nil {
			var e *api.Error
			if errors.As(err, &e) {
				return nil, e
			}
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			b.healthy.Store(false)
			continue
		}
		return infos, nil
	}
	return nil, &api.Error{Code: api.CodeBackendDown, Message: "gateway: no healthy backend"}
}

// Metrics returns the cluster aggregate in single-node shape; use
// ClusterMetrics (or GET /v1/metrics, which serves it) for the
// per-backend breakdown.
func (g *Gateway) Metrics(ctx context.Context) (api.Metrics, error) {
	return g.ClusterMetrics(ctx).Metrics, nil
}

// ClusterMetrics snapshots every backend concurrently and aggregates:
// capacities and counters sum, the scheduler label collapses to "mixed"
// when backends disagree, latency histograms merge bucket-wise and the
// latency summaries are derived from the merged histograms, and
// RankError is the gateway's own global measurement. Fetch success and
// failure double as health observations.
func (g *Gateway) ClusterMetrics(ctx context.Context) api.ClusterMetrics {
	rows := make([]api.BackendMetrics, len(g.backends))
	var wg sync.WaitGroup
	for i, b := range g.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			m, err := b.client.Metrics(ctx)
			if err != nil {
				b.healthy.Store(false)
				rows[i] = api.BackendMetrics{URL: b.url, Error: err.Error()}
				return
			}
			b.healthy.Store(true)
			rows[i] = api.BackendMetrics{URL: b.url, Healthy: true, Metrics: &m}
		}(i, b)
	}
	wg.Wait()

	g.mu.Lock()
	cm := api.ClusterMetrics{
		Metrics: api.Metrics{
			UptimeSeconds: time.Since(g.start).Seconds(),
			Draining:      g.draining,
			RankError: api.RankErrorStats{
				Count: g.rank.Count,
				Mean:  g.rank.Mean(),
				Max:   g.rank.Max,
			},
		},
		Backends: rows,
	}
	g.mu.Unlock()

	controllers := 0
	for _, row := range rows {
		if row.Metrics == nil {
			continue
		}
		m := row.Metrics
		cm.HealthyBackends++
		if cm.JobSched == "" {
			cm.JobSched = m.JobSched
			cm.JobSchedK = m.JobSchedK
		} else if cm.JobSched != m.JobSched || cm.JobSchedK != m.JobSchedK {
			cm.JobSched = "mixed"
			cm.JobSchedK = 0
		}
		cm.Workers += m.Workers
		cm.QueueCapacity += m.QueueCapacity
		addJobCounts(&cm.Jobs, m.Jobs)
		addCacheStats(&cm.Cache, m.Cache)
		cm.Cost.Pops += m.Cost.Pops
		cm.Cost.StalePops += m.Cost.StalePops
		cm.Cost.Wasted += m.Cost.Wasted
		cm.Cost.Steals += m.Cost.Steals
		cm.Cost.GlobalFallbacks += m.Cost.GlobalFallbacks
		cm.Cost.EmptyPolls += m.Cost.EmptyPolls
		cm.QueueLatencyHist = metricsexport.MergeHistograms(cm.QueueLatencyHist, m.QueueLatencyHist)
		cm.ExecLatencyHist = metricsexport.MergeHistograms(cm.ExecLatencyHist, m.ExecLatencyHist)
		if m.Controller != nil {
			mergeController(&cm.Controller, m.Controller)
			controllers++
		}
		mergeWAL(&cm.WAL, m.WAL)
	}
	cm.QueueLatency = metricsexport.Summarize(cm.QueueLatencyHist)
	cm.ExecLatency = metricsexport.Summarize(cm.ExecLatencyHist)
	finishController(cm.Controller, controllers)
	return cm
}

func addJobCounts(dst *api.JobCounts, src api.JobCounts) {
	dst.Submitted += src.Submitted
	dst.Queued += src.Queued
	dst.Running += src.Running
	dst.Done += src.Done
	dst.Failed += src.Failed
	dst.Canceled += src.Canceled
	dst.Rejected += src.Rejected
}

func addCacheStats(dst *api.CacheStats, src api.CacheStats) {
	dst.Entries += src.Entries
	dst.Capacity += src.Capacity
	dst.Hits += src.Hits
	dst.Misses += src.Misses
	dst.Evictions += src.Evictions
}

// mergeController folds one backend's controller section into the cluster
// aggregate; finishController turns the K/Batch sums into means. Backends
// on static schedulers report no section and are simply absent from the
// aggregate (a fleet with no controllers omits the section entirely).
// Counters sum; the SLO echo survives only while every reporting backend
// agrees, zeroing on heterogeneous fleets exactly as JobSchedK does; the
// per-node LastAdjustment is dropped — a cluster has no single "last".
func mergeController(dst **api.ControllerStats, src *api.ControllerStats) {
	if src == nil {
		return
	}
	if *dst == nil {
		*dst = &api.ControllerStats{
			Enabled:  true,
			RankSLO:  src.RankSLO,
			P99SLOMs: src.P99SLOMs,
		}
	}
	d := *dst
	if d.RankSLO != src.RankSLO {
		d.RankSLO = 0
	}
	if d.P99SLOMs != src.P99SLOMs {
		d.P99SLOMs = 0
	}
	d.K += src.K
	d.Batch += src.Batch
	d.Steps += src.Steps
	d.Widened += src.Widened
	d.Tightened += src.Tightened
	d.RankViolations += src.RankViolations
	d.P99Violations += src.P99Violations
}

// finishController divides the summed K/Batch back into per-backend means
// (rounded to nearest), given how many backends reported a controller.
func finishController(c *api.ControllerStats, controllers int) {
	if c == nil || controllers == 0 {
		return
	}
	c.K = (c.K + controllers/2) / controllers
	c.Batch = (c.Batch + controllers/2) / controllers
}

// mergeWAL folds one backend's write-ahead-log section into the cluster
// aggregate. Backends without a log report no section and are absent; a
// fleet with no logs omits the section entirely. Counters and gauges sum
// (Segments is a fleet-wide total, not a mean), and TornTail is true if
// any backend recovered past a torn tail.
func mergeWAL(dst **api.WALStats, src *api.WALStats) {
	if src == nil {
		return
	}
	if *dst == nil {
		*dst = &api.WALStats{}
	}
	d := *dst
	d.Appends += src.Appends
	d.Fsyncs += src.Fsyncs
	d.ReplayedJobs += src.ReplayedJobs
	d.Segments += src.Segments
	d.Compacted += src.Compacted
	d.Bytes += src.Bytes
	d.TornTail = d.TornTail || src.TornTail
}

// Drain stops gateway admission and fans the drain out to every backend.
// Unreachable backends are reported but do not abort the fan-out.
func (g *Gateway) Drain(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	g.mu.Unlock()

	errs := make([]error, len(g.backends))
	var wg sync.WaitGroup
	for i, b := range g.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			if err := b.client.Drain(ctx); err != nil {
				errs[i] = fmt.Errorf("draining %s: %w", b.url, err)
			}
		}(i, b)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return api.WrapError(err, api.CodeBackendDown)
	}
	return nil
}

// HealthyBackends counts backends whose last probe or request succeeded.
func (g *Gateway) HealthyBackends() int {
	n := 0
	for _, b := range g.backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}

// Handler serves the gateway over the same versioned wire API as a
// single node (api.NewHandler), with the metrics and health routes
// overridden: GET /v1/metrics serves the full ClusterMetrics payload,
// GET /v1/metrics/prom renders it as Prometheus text with per-backend
// labels, and /healthz answers 200 with status "ok" while accepting,
// 200 with status "draining" during a drain (alive, finishing work),
// and 503 only when no backend is reachable. (The deprecated
// unversioned /metrics alias is gone, like the node-level aliases.)
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	metrics := func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, g.ClusterMetrics(r.Context()))
	}
	mux.HandleFunc("GET /v1/metrics", metrics)
	mux.HandleFunc("GET /v1/metrics/prom", func(w http.ResponseWriter, r *http.Request) {
		cm := g.ClusterMetrics(r.Context())
		w.Header().Set("Content-Type", metricsexport.ContentType)
		w.Write(metricsexport.RenderCluster(&cm))
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		g.mu.Lock()
		draining := g.draining
		g.mu.Unlock()
		healthy := g.HealthyBackends()
		body := map[string]any{"status": api.StatusOK, "healthy_backends": healthy}
		switch {
		case draining:
			body["status"] = api.StatusDraining
			api.WriteJSON(w, http.StatusOK, body)
		case healthy == 0:
			body["status"] = "no healthy backends"
			api.WriteJSON(w, http.StatusServiceUnavailable, body)
		default:
			api.WriteJSON(w, http.StatusOK, body)
		}
	})
	mux.Handle("/", api.NewHandler(g))
	return api.WithTrace(mux)
}
