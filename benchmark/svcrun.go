package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"syscall"
	"time"

	"relaxsched/internal/api"
)

// Phase shares of a svc run's measuring time. An untraced run saturates
// then paces; a traced run first saturates with the recorders switched
// off, so the same fleet yields the tracing overhead.
const (
	saturateShare    = 0.40
	saturateWarmup   = 1 * time.Second // discarded head of the saturate phase
	tracedRefShare   = 0.15
	tracedSatShare   = 0.20
	maxJobTraces     = 4000 // job timelines fetched after a traced run
	promScrapes      = 100
	maxFailuresShown = 5
)

// saturateResult is the outcome of one closed-loop phase.
type saturateResult struct {
	jobsPerS float64
	blocks   []float64 // jobs per second of every throughput block
	jobs     int
}

// throughputBlock is how many consecutive completions one throughput
// sample covers. The closed loop works in rounds (every client submits a
// window, then retires it), so a sample over a fixed time slice is
// quantised to whole rounds; timing a fixed number of completions is
// not. It spans several rounds of every client. jobs_per_s is the median
// over the blocks, so a stall costs the blocks it touches, not a share of
// the total.
const throughputBlock = 16 * closedLoopWindow

// measureSaturate runs the windowed closed loop for dur and, after the
// warm-up head, times every block of throughputBlock jobs that reached
// `done`.
func measureSaturate(res *runResult, f *fleet, w *svcWorkload, dur time.Duration) saturateResult {
	warm := min(saturateWarmup, dur/4)
	recs := runClosedLoop(context.Background(), f.targets, w.spec, dur)
	var done []time.Duration
	for _, r := range recs {
		res.count(r)
		if r.Err == "" && r.Done >= warm {
			done = append(done, r.Done)
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a] < done[b] })
	out := saturateResult{jobs: len(recs)}
	block := throughputBlock
	if len(done) <= 2*block { // a very short phase: one sample over all of it
		block = len(done) - 1
	}
	for i := block; block > 0 && i < len(done); i += block {
		out.blocks = append(out.blocks, float64(block)/(done[i]-done[i-block]).Seconds())
	}
	out.jobsPerS = median(out.blocks)
	return out
}

// pacedResult is the outcome of one open-loop phase.
type pacedResult struct {
	recs            []jobRecord
	submitMs, jobMs []float64
	lagMs           []float64
	p99             float64
	p99Windows      []float64
	// submitP50, jobP50 are the quiet-window medians; see quietP50.
	submitP50, jobP50         float64
	submitWindows, jobWindows []float64
	polls, jobs               int
}

// measurePaced runs the open loop for dur on a single P. One job is in
// flight at a time here, so a second P adds no capacity, only noise: the
// Go scheduler hands a request's goroutines between Ps by waking parked
// threads, and which hand-offs pay that wake-up drifts over seconds.
//
// With PinPaced every thread is also confined to one CPU, because with
// one P on two CPUs the kernel still moves the thread, so that some
// network wake-ups cross CPUs and some do not: on svc-hot the median
// submit latency of consecutive 0.6 s windows of one run ranged
// 0.082-0.115 ms on the reference box unpinned and 0.081-0.087 ms pinned,
// and the run-to-run spread of the p50 fell from 10 % to under 4 %. A
// workload whose requests block in the kernel must not be pinned: the
// fleet's fsyncs and the generator's yield loop then fight for the one
// CPU, and two runs in eight stalled for seconds.
//
// Throughput under contention, on every CPU, is the saturate phase's job.
func measurePaced(res *runResult, f *fleet, w *svcWorkload, dur time.Duration) pacedResult {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if w.PinPaced {
		unpin, err := pinToOneCPU()
		if err == nil {
			defer unpin()
		}
		res.Notes["paced_pinned_to_one_cpu"] = err == nil
	}
	p := pacedResult{recs: runOpenLoop(context.Background(), f.targets[0], w.spec, w.Rate, dur)}
	at := make([]float64, 0, len(p.recs))
	for _, r := range p.recs {
		res.count(r)
		p.submitMs = append(p.submitMs, latencyMs(r, r.Due, r.Acked))
		p.jobMs = append(p.jobMs, latencyMs(r, r.Due, r.Done))
		p.lagMs = append(p.lagMs, float64(r.Sent-r.Due)/float64(time.Millisecond))
		at = append(at, r.Due.Seconds())
		p.polls += r.Polls
		p.jobs++
	}
	p.p99Windows = windowPercentiles(at, p.jobMs, dur.Seconds(), latencyWindows, 99)
	p.p99 = median(p.p99Windows)
	p.submitP50, p.submitWindows = quietP50(at, p.submitMs, dur)
	p.jobP50, p.jobWindows = quietP50(at, p.jobMs, dur)
	return p
}

// quietShare picks, among the one-second windows of the paced phase, the
// one whose median is reported as the phase's p50: the window at the
// lower quartile. The sandbox has slow stretches of a second to a minute
// (a busy neighbour costs a fifth of the CPU's speed), and a median over
// all samples reports how many of them a run caught: over ten runs of
// svc-hot the plain median of submit latency spread 7.5 % and this one
// 4.5 % (svc-durable-fleet: 11.4 % and 8.5 %). A change to the program
// moves every window, the quiet ones too.
const quietShare = 25

// quietP50 returns the median of the one-second window at the quietShare
// rank, and every window's median.
func quietP50(at, vals []float64, dur time.Duration) (float64, []float64) {
	windows := windowPercentiles(at, vals, dur.Seconds(), max(int(dur.Seconds()), 1), 50)
	return percentile(windows, quietShare), windows
}

// runSvc measures one svc workload for about `seconds`.
func runSvc(w *svcWorkload, seed uint64, seconds float64, traced bool) (res *runResult, err error) {
	res = newRunResult(w.Name, seed, traced)
	var log *spanLog
	if traced {
		log = newSpanLog()
	}

	t0 := time.Now()
	f, err := startFleet(w, seed, log)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{time.Since(t0).Seconds()}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	res.Notes["graph_seeds"] = w.graphSeeds
	// Start from a flushed disk: what earlier runs (and this set-up) left
	// dirty would otherwise ride along with the first fsyncs measured.
	syscall.Sync()

	total := time.Duration(seconds * float64(time.Second))
	if !traced {
		satDur := time.Duration(saturateShare * float64(total))
		t0 = time.Now()
		sat := measureSaturate(res, f, w, satDur)
		res.Phases["saturate"] = time.Since(t0).Seconds()
		t0 = time.Now()
		paced := measurePaced(res, f, w, total-satDur)
		res.Phases["paced"] = time.Since(t0).Seconds()

		res.setDist("jobs_per_s", sat.blocks)
		res.OpsPerS = sat.jobsPerS
		// The distributions are those of all samples; the metric is the
		// quiet-window median.
		res.setDist("submit_latency_p50_ms", paced.submitMs)
		res.setDist("job_latency_p50_ms", paced.jobMs)
		res.Values["submit_latency_p50_ms"] = paced.submitP50
		res.Values["job_latency_p50_ms"] = paced.jobP50
		res.Notes["submit_latency_p50_windows_ms"] = paced.submitWindows
		res.Notes["job_latency_p50_windows_ms"] = paced.jobWindows
		res.Values["job_latency_p99_ms"] = paced.p99
		res.Notes["job_latency_p99_windows_ms"] = paced.p99Windows
		res.Notes["generator_lag_ms"] = summarize(paced.lagMs)
		res.Notes["backend_split"] = f.split(paced.recs)

		// setup_s is the median of many set-ups. They come after the
		// measuring, because every one of them creates, syncs and deletes
		// logs, and the disk takes seconds to settle from that.
		if err := f.Close(); err != nil {
			return nil, err
		}
		for r := 1; r < w.SetupReps; r++ {
			t0 := time.Now()
			again, err := startFleet(w, seed, nil)
			if err != nil {
				return nil, fmt.Errorf("set-up %d: %w", r, err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			if err := again.Close(); err != nil {
				return nil, err
			}
		}
		res.setDist("setup_s", setups)
		res.Phases["setup"] = sum(setups)
		return res, nil
	}
	res.Phases["setup"] = setups[0]

	proc := readProcess()
	refDur := time.Duration(tracedRefShare * float64(total))
	satDur := time.Duration(tracedSatShare * float64(total))
	t0 = time.Now()
	ref := measureSaturate(res, f, w, refDur)
	res.Phases["saturate_untraced"] = time.Since(t0).Seconds()
	log.enabled.Store(true)
	t0 = time.Now()
	sat := measureSaturate(res, f, w, satDur)
	res.Phases["saturate"] = time.Since(t0).Seconds()
	// Only the paced phase feeds the ledger: its latencies are the ones
	// the end-to-end metrics report.
	log.reset()
	t0 = time.Now()
	paced := measurePaced(res, f, w, total-refDur-satDur)
	res.Phases["paced"] = time.Since(t0).Seconds()
	log.enabled.Store(false)
	procAfter := readProcess()

	res.OpsPerS = sat.jobsPerS
	if ref.jobsPerS > 0 {
		res.Values["trace.bench_overhead_ratio"] = sat.jobsPerS / ref.jobsPerS
	}
	res.Notes["jobs_per_s_untraced"] = ref.jobsPerS
	res.Notes["jobs_per_s_traced"] = sat.jobsPerS
	res.Notes["backend_split"] = f.split(paced.recs)
	res.setProcess(proc, procAfter, ref.jobs+sat.jobs+paced.jobs)
	res.Values["process.generator_lag_ms_p99"] = percentile(paced.lagMs, 99)
	if paced.jobs > 0 {
		res.Values["service.polls_per_job"] = float64(paced.polls) / float64(paced.jobs)
	}

	t0 = time.Now()
	if err := svcLayers(res, f, w, paced, log); err != nil {
		return nil, err
	}
	res.Phases["layers"] = time.Since(t0).Seconds()
	return res, nil
}

// split counts jobs per backend, read from the job ids.
func (f *fleet) split(recs []jobRecord) []int {
	split := make([]int, max(len(f.walDirs), 1))
	for _, r := range recs {
		if r.Err == "" {
			split[f.backendOf(r.ID)]++
		}
	}
	return split
}

// jobPhases is one job's lifecycle as the program recorded it, keyed by
// phase name, in microseconds.
type jobPhases map[string]float64

// svcLayers turns the paced phase's spans, the program's own job
// timelines and its counters into the per-layer metrics, then runs the
// isolated layer probes.
func svcLayers(res *runResult, f *fleet, w *svcWorkload, paced pacedResult, log *spanLog) error {
	ctx := context.Background()
	spans := log.snapshot()
	res.spans = spans
	self := selfTimes(spans)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	type bucket struct{ dur, self []float64 }
	by := map[string]*bucket{} // "<span name>/submit" or "/status"
	nodeSubmit := map[uint64]float64{}
	for i, s := range spans {
		k := s.Name + "/status"
		if clientSpanName(s.Trace) == spanClientSubmit {
			k = s.Name + "/submit"
			if s.Name == spanNode {
				nodeSubmit[s.Trace] = us(s.dur())
			}
		}
		b := by[k]
		if b == nil {
			b = &bucket{}
			by[k] = b
		}
		b.dur = append(b.dur, us(s.dur()))
		b.self = append(b.self, us(self[i]))
	}
	p50 := func(key string, selfTime bool) float64 {
		b := by[key]
		if b == nil {
			return 0
		}
		if selfTime {
			return median(b.self)
		}
		return median(b.dur)
	}

	// The program's own per-job timelines, newest paced jobs first, while
	// they are still in the nodes' bounded trace rings.
	submitTrace := map[int64]uint64{}
	for _, t := range f.traced {
		t.mu.Lock()
		for id, tr := range t.submitTrace {
			submitTrace[id] = tr
		}
		t.mu.Unlock()
	}
	var phases []jobPhases
	var handlerSelf, traceRT []float64
	for i := len(paced.recs) - 1; i >= 0 && len(phases) < maxJobTraces; i-- {
		r := paced.recs[i]
		if r.Err != "" {
			continue
		}
		t0 := time.Now()
		tr, err := f.admin.JobTrace(ctx, r.ID)
		if api.IsCode(err, api.CodeUnknownJob) {
			break // evicted from the ring: older ones are gone too
		}
		if err != nil {
			return fmt.Errorf("fetching job trace %d: %w", r.ID, err)
		}
		traceRT = append(traceRT, us(time.Since(t0).Nanoseconds()))
		ph := jobPhases{}
		for _, s := range tr.Spans {
			ph[s.Name] = us(s.EndNanos - s.StartNanos)
		}
		phases = append(phases, ph)
		// With a log the "accepted" phase is the wait for the fsync; it
		// happens inside the node's submit handler.
		if node, ok := nodeSubmit[submitTrace[r.ID]]; ok {
			wait := 0.0
			if len(f.walDirs) > 0 {
				wait = ph["accepted"]
			}
			handlerSelf = append(handlerSelf, node-wait)
		}
	}
	if len(phases) == 0 {
		return fmt.Errorf("no job timeline could be fetched")
	}
	res.Notes["job_traces"] = len(phases)
	phase := func(name string) []float64 {
		var xs []float64
		for _, ph := range phases {
			if v, ok := ph[name]; ok {
				xs = append(xs, v)
			}
		}
		return xs
	}
	res.Values["trace.jobtrace_rt_us_p50"] = median(traceRT)
	res.Values["service.queue_wait_us_p50"] = median(phase("queued"))
	res.Values["service.queue_wait_us_p99"] = percentile(phase("queued"), 99)
	res.Values["service.cache_lookup_us_p50"] = median(phase("cache-hit"))
	res.Values["service.exec_us_p50"] = median(phase("executing"))
	res.Values["service.handler_self_us_p50"] = median(handlerSelf)
	res.Values["service.status_handler_us_p50"] = p50(spanNode+"/status", false)
	res.Values["api.submit_rt_self_us_p50"] = p50(spanClientSubmit+"/submit", true)
	res.Values["api.status_rt_self_us_p50"] = p50(spanClientStatus+"/status", true)

	// The program's own counters.
	cm, err := f.admin.ClusterMetrics(ctx)
	if err != nil {
		return fmt.Errorf("reading /v1/metrics: %w", err)
	}
	nodes := []api.Metrics{cm.Metrics}
	if f.gw != nil {
		nodes = nodes[:0]
		for _, b := range cm.Backends {
			if b.Metrics == nil {
				return fmt.Errorf("backend %s reported no metrics: %s", b.URL, b.Error)
			}
			nodes = append(nodes, *b.Metrics)
		}
	}
	var rankSum float64
	var rankN, rankMax int64
	for _, n := range nodes {
		rankSum += n.RankError.Mean * float64(n.RankError.Count)
		rankN += n.RankError.Count
		rankMax = max(rankMax, n.RankError.Max)
	}
	if rankN > 0 {
		res.Values["service.rank_error_mean"] = rankSum / float64(rankN)
	}
	res.Values["service.rank_error_max"] = float64(rankMax)
	if lookups := cm.Cache.Hits + cm.Cache.Misses; lookups > 0 {
		res.Values["service.cache_hit_ratio"] = float64(cm.Cache.Hits) / float64(lookups)
	}
	res.Values["service.rejected"] = float64(cm.Jobs.Rejected)

	// The Prometheus exposition of one node.
	var scrape []float64
	for i := 0; i < promScrapes; i++ {
		t0 := time.Now()
		resp, err := f.admin.HTTP.Get(f.nodeURLs[0] + "/v1/metrics/prom")
		if err != nil {
			return fmt.Errorf("scraping: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("scraping: status %d: %v", resp.StatusCode, err)
		}
		scrape = append(scrape, us(time.Since(t0).Nanoseconds()))
	}
	res.Values["metricsexport.scrape_us_p50"] = median(scrape)

	// Isolated probes of the layers both svc workloads cross.
	if res.Values["sched.jobqueue_ns_per_op"], err = probeJobQueue(w.seed); err != nil {
		return err
	}
	inproc, err := probeInprocSubmit(w.spec(0))
	if err != nil {
		return fmt.Errorf("in-process submit probe: %w", err)
	}
	res.Values["service.inproc_submit_us_p50"] = median(inproc)
	stub, err := probeStubRT(w.spec(0))
	if err != nil {
		return fmt.Errorf("stub round-trip probe: %w", err)
	}
	res.Values["api.stub_rt_us_p50"] = median(stub)
	if res.Values["api.submit_bytes"], err = submitBytes(w); err != nil {
		return err
	}

	// The ledger: the client-observed submit latency against the sum of
	// the self times along the path a submit blocks on.
	ledger := map[string]float64{
		"generator.lag":        median(paced.lagMs) * 1e3,
		"api.submit_rt_self":   res.Values["api.submit_rt_self_us_p50"],
		"service.handler_self": res.Values["service.handler_self_us_p50"],
	}
	if f.gw != nil {
		res.Values["gateway.self_us_p50"] = p50(spanGateway+"/submit", true)
		res.Values["gateway.status_self_us_p50"] = p50(spanGateway+"/status", true)
		res.Values["gateway.backend_rt_us_p50"] = p50(spanBackendRT+"/submit", false)
		res.Values["api.hop_self_us_p50"] = p50(spanBackendRT+"/submit", true)
		res.Values["gateway.global_rank_error_mean"] = cm.RankError.Mean
		split := f.split(paced.recs)
		sort.Ints(split)
		res.Values["gateway.max_backend_share"] = float64(split[len(split)-1]) / float64(paced.jobs)

		res.Values["wal.sync_wait_us_p50"] = median(phase("accepted"))
		res.Values["wal.sync_wait_us_p99"] = percentile(phase("accepted"), 99)
		if cm.WAL == nil || cm.WAL.Fsyncs == 0 || cm.Jobs.Done == 0 {
			return fmt.Errorf("fleet reported no WAL activity")
		}
		res.Values["wal.group_commit_factor"] = float64(cm.WAL.Appends) / float64(cm.WAL.Fsyncs)
		res.Values["wal.fsyncs_per_job"] = float64(cm.WAL.Fsyncs) / float64(cm.Jobs.Done)
		alone, bytesPerJob, err := probeWALAlone(w, f.tmpDir)
		if err != nil {
			return fmt.Errorf("WAL probe: %w", err)
		}
		res.Values["wal.append_alone_us_p50"] = median(alone)
		res.Values["wal.bytes_per_job"] = bytesPerJob

		ledger["gateway.self"] = res.Values["gateway.self_us_p50"]
		ledger["api.hop_self"] = res.Values["api.hop_self_us_p50"]
		ledger["wal.sync_wait"] = res.Values["wal.sync_wait_us_p50"]

		// Replay needs the managers closed; the fleet is done measuring.
		if err := f.stop(); err != nil {
			return err
		}
		secs, records, err := replayWAL(f.walDirs[0])
		if err != nil {
			return fmt.Errorf("replaying the run's log: %w", err)
		}
		res.Values["wal.replay_s"] = secs
		res.Values["wal.replay_records_per_s"] = float64(records) / secs
	}
	observed := median(paced.submitMs) * 1e3
	accounted := 0.0
	for _, v := range ledger {
		accounted += v
	}
	ledger["observed.submit_latency_p50"] = observed
	res.Notes["ledger_us"] = ledger
	res.Values["process.ledger_residual_ratio"] = (observed - accounted) / observed
	res.Notes["executing_share_of_job_latency"] = res.Values["service.exec_us_p50"] / (median(paced.jobMs) * 1e3)
	return nil
}
