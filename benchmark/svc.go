package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"relaxsched/internal/api"
	"relaxsched/internal/gateway"
	"relaxsched/internal/rng"
	"relaxsched/internal/service"
	"relaxsched/internal/trace"
	"relaxsched/internal/wal"
)

// The svc workloads: a relaxd/relaxgw client submits jobs and waits for
// the 202 and then for the terminal status. Every job is the same "null
// job" — sequential mis on a cached 1000-vertex graph, tens of
// microseconds of execution — so the layers around the executor are what
// is measured.

// prioritySpread is the number of distinct job priorities: job i carries
// priority (i*7919) % prioritySpread, the spread relaxload uses.
const prioritySpread = 100

func jobPriority(i int) uint32 { return uint32((i * 7919) % prioritySpread) }

// benchTmp is where WAL directories go, relative to the checkout the
// benchmark is run from: run.sh keeps everything a run writes under
// .bench_build.
const benchTmp = ".bench_build/tmp"

// latencyWindows is the number of windows job_latency_p99_ms takes the
// median over.
const latencyWindows = 5

type svcWorkload struct {
	Name string
	// Backends > 0 puts a gateway in front of that many WAL-backed nodes;
	// 0 is one bare node with no log.
	Backends int
	// GraphKeys is how many distinct cached graphs the jobs cycle over.
	GraphKeys int
	// Rate is the open-loop phase's jobs per second.
	Rate float64
	// Clients is how many saturating clients, one connection each, drive
	// the closed loop.
	Clients int
	// PinPaced confines the open-loop phase to one CPU; see measurePaced.
	PinPaced bool
	// SetupReps is how many times the fleet is built and warmed; setup_s
	// is the median.
	SetupReps int
	// TmpRoot is where WAL directories go; it must lie inside the
	// checkout the benchmark runs from.
	TmpRoot string

	GraphN     int
	GraphEdges int64

	seed       uint64
	graphSeeds []uint64 // chosen during warm-up
}

func svcHotConfig() *svcWorkload {
	return &svcWorkload{Name: wlSvcHot, GraphKeys: 1, Rate: 1000, Clients: runtime.NumCPU(), PinPaced: true, SetupReps: 401,
		TmpRoot: benchTmp, GraphN: 1000, GraphEdges: 5000}
}

// fleetClients is the fleet's number of saturating clients. A submit to a
// durable node waits for an fsync, so with one client per CPU (two here)
// throughput is two fsync latencies in series: the WAL's group commit
// never forms (appends per fsync measured 1.004) and jobs_per_s follows
// the sandbox's disk, whose speed drifts by a quarter over minutes. Eight
// submitters let commits share an fsync, which is what a loaded node does,
// and the run-to-run spread of jobs_per_s fell from 10-17 % to about 5 %.
// Eight windows of 32 stay under the two nodes' queue depth of 256 each.
const fleetClients = 8

func svcFleetConfig() *svcWorkload {
	return &svcWorkload{Name: wlSvcFleet, Backends: 2, GraphKeys: 8, Rate: 500, Clients: fleetClients, SetupReps: 101,
		TmpRoot: benchTmp, GraphN: 1000, GraphEdges: 5000}
}

// spec builds job i's submission. Equal workload seeds give equal specs.
func (w *svcWorkload) spec(i int) api.JobSpec {
	s := api.DefaultJobSpec()
	s.Workload, s.Mode, s.Verify = "mis", "sequential", false
	s.Graph = w.graphSpec(w.graphSeeds[i%len(w.graphSeeds)])
	s.Priority = jobPriority(i)
	s.Seed = w.seed
	return s
}

func (w *svcWorkload) graphSpec(graphSeed uint64) api.GraphSpec {
	return api.GraphSpec{Model: api.ModelGNP, N: w.GraphN, Edges: w.GraphEdges, Seed: graphSeed}
}

// loopback is one HTTP server on an ephemeral 127.0.0.1 port.
type loopback struct {
	srv  *http.Server
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	l := &loopback{srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns ErrServerClosed once stop runs
	}()
	return l, "http://" + ln.Addr().String(), nil
}

func (l *loopback) stop() {
	l.srv.Close()
	<-l.done
}

// fleet is one running system under test plus the generator's clients.
type fleet struct {
	managers []*service.Manager
	servers  []*loopback
	gw       *gateway.Gateway
	walDirs  []string
	tmpDir   string

	transports []*http.Transport
	targets    []jobTarget
	traced     []*tracedTarget
	admin      *api.Client // for metrics, traces, scrapes: the front door
	nodeURLs   []string

	log *spanLog // nil in an untraced run
}

// spanMiddleware records one server-side span per benchmark request. An
// empty parent means the handler is the front door, directly under the
// client's span.
func spanMiddleware(log *spanLog, name, parent string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := parseTraceID(r.Header.Get(trace.Header))
		if !ok || !log.on() {
			h.ServeHTTP(w, r)
			return
		}
		start := log.now()
		h.ServeHTTP(w, r)
		p := parent
		if p == "" {
			p = clientSpanName(id)
		}
		log.add(id, name, p, start, log.now())
	})
}

// spanTransport records the gateway's backend round trip: from the
// request leaving the gateway's client to its response body being
// closed, which is when the client has finished decoding it.
type spanTransport struct {
	inner http.RoundTripper
	log   *spanLog
}

type spanBody struct {
	io.ReadCloser
	end func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.end()
	return err
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id, ok := parseTraceID(r.Header.Get(trace.Header))
	if !ok || !t.log.on() {
		return t.inner.RoundTrip(r)
	}
	start := t.log.now()
	resp, err := t.inner.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	var once sync.Once
	resp.Body = &spanBody{resp.Body, func() {
		once.Do(func() { t.log.add(id, spanBackendRT, spanGateway, start, t.log.now()) })
	}}
	return resp, nil
}

// backendHost names backend i towards the gateway. The gateway's
// consistent-hash ring hashes backend URLs, and real loopback URLs carry
// an ephemeral port that changes every run; fixed names resolved by the
// dialer below keep the routing — and so the backend split — a function
// of the workload seed alone.
func backendHost(i int) string { return fmt.Sprintf("backend-%d.bench", i) }

// startFleet builds and warms the system under test. log is nil for an
// untraced run, which then carries no recorder at all.
func startFleet(w *svcWorkload, seed uint64, log *spanLog) (f *fleet, err error) {
	f = &fleet{log: log}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	w.seed = seed

	nodeHandler := func(m *service.Manager) http.Handler {
		h := service.NewHandler(m)
		if log == nil {
			return h
		}
		parent := ""
		if w.Backends > 0 {
			parent = spanBackendRT
		}
		return spanMiddleware(log, spanNode, parent, h)
	}

	// The nodes: one bare manager, or Backends managers with a log each,
	// every one behind its own loopback listener.
	if w.Backends > 0 {
		if err := os.MkdirAll(w.TmpRoot, 0o755); err != nil {
			return f, err
		}
		if f.tmpDir, err = os.MkdirTemp(w.TmpRoot, "fleet-"); err != nil {
			return f, err
		}
	}
	for i := 0; i < max(w.Backends, 1); i++ {
		opts := service.Options{Seed: seed + uint64(i)}
		if w.Backends > 0 {
			opts.WALDir = filepath.Join(f.tmpDir, fmt.Sprintf("wal-%d", i))
			f.walDirs = append(f.walDirs, opts.WALDir)
		}
		m, err := service.NewManager(opts)
		if err != nil {
			return f, err
		}
		f.managers = append(f.managers, m)
		srv, url, err := serveLoopback(nodeHandler(m))
		if err != nil {
			return f, err
		}
		f.servers = append(f.servers, srv)
		f.nodeURLs = append(f.nodeURLs, url)
	}

	front := f.nodeURLs[0]
	if w.Backends > 0 {
		addrs := make(map[string]string)
		var names []string
		for i, url := range f.nodeURLs {
			addrs[backendHost(i)+":80"] = url[len("http://"):]
			names = append(names, "http://"+backendHost(i))
		}
		dialer := &net.Dialer{}
		hop := &http.Transport{
			MaxIdleConnsPerHost: 64,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				return dialer.DialContext(ctx, network, addrs[addr])
			},
		}
		f.transports = append(f.transports, hop)
		var rt http.RoundTripper = hop
		if log != nil {
			rt = &spanTransport{inner: hop, log: log}
		}
		f.gw, err = gateway.New(gateway.Options{Backends: names, HTTPClient: &http.Client{Transport: rt, Timeout: opTimeout}})
		if err != nil {
			return f, err
		}
		h := f.gw.Handler()
		if log != nil {
			h = spanMiddleware(log, spanGateway, "", h)
		}
		srv, url, err := serveLoopback(h)
		if err != nil {
			return f, err
		}
		f.servers = append(f.servers, srv)
		front = url
	}

	for c := 0; c < w.Clients; c++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		f.transports = append(f.transports, tr)
		var t jobTarget = &api.Client{BaseURL: front, HTTP: &http.Client{Transport: tr, Timeout: opTimeout}}
		if log != nil {
			tt := &tracedTarget{inner: t, log: log, submitTrace: make(map[int64]uint64)}
			f.traced = append(f.traced, tt)
			t = tt
		}
		f.targets = append(f.targets, t)
	}
	adminTr := &http.Transport{MaxIdleConnsPerHost: 1}
	f.transports = append(f.transports, adminTr)
	f.admin = &api.Client{BaseURL: front, HTTP: &http.Client{Transport: adminTr, Timeout: opTimeout}}

	return f, f.warm(w)
}

// warm chooses the graph keys and fills the caches. The first job on
// every key runs with the exactness oracle on; it also opens each
// client's connection. Behind a gateway, candidate graph seeds are drawn
// from the workload seed's stream and kept only while their backend still
// has room, so every seed yields an even split and throughput does not
// depend on how eight hashes happened to fall. Twice as many candidates as
// keys are always tried (that is enough for all but one seed in fifty), so
// set-up does the same work whatever the seed.
func (f *fleet) warm(w *svcWorkload) error {
	ctx := context.Background()
	perBackend, candidates := w.GraphKeys, w.GraphKeys
	if w.Backends > 0 {
		perBackend = (w.GraphKeys + w.Backends - 1) / w.Backends
		candidates = 2 * w.GraphKeys
	}
	taken := make([]int, max(w.Backends, 1))
	w.graphSeeds = w.graphSeeds[:0]
	stream := rng.New(w.seed)
	var lastID int64
	for tries := 0; tries < candidates || len(w.graphSeeds) < w.GraphKeys; tries++ {
		if tries > 64*w.GraphKeys {
			return fmt.Errorf("warm-up: no even backend split after %d graph seeds", tries)
		}
		gs := stream.Uint64n(1 << 32)
		spec := api.DefaultJobSpec()
		spec.Workload, spec.Mode, spec.Verify = "mis", "sequential", true
		spec.Graph, spec.Seed = w.graphSpec(gs), w.seed
		t := f.targets[tries%len(f.targets)]
		st, err := t.Submit(ctx, spec)
		if err != nil {
			return fmt.Errorf("warm-up submit: %w", err)
		}
		if _, err := awaitTerminal(ctx, t, st.ID, time.Now().Add(opTimeout), yieldUntil); err != nil {
			return fmt.Errorf("warm-up job %d: %w", st.ID, err)
		}
		if st, err = t.Status(ctx, st.ID); err != nil || st.Result == nil || !st.Result.Verified {
			return fmt.Errorf("warm-up job %d was not verified (%v)", st.ID, err)
		}
		lastID = st.ID
		if b := f.backendOf(st.ID); taken[b] < perBackend {
			taken[b]++
			w.graphSeeds = append(w.graphSeeds, gs)
		}
	}
	// Open every client's connection before the clock starts.
	for _, t := range f.targets {
		if _, err := t.Status(ctx, lastID); err != nil {
			return fmt.Errorf("warm-up status: %w", err)
		}
	}
	return nil
}

// backendOf reads the owning backend out of a gateway job id (the low
// byte, as documented on api.JobStatus); a bare node is backend 0.
func (f *fleet) backendOf(id int64) int {
	if f.gw == nil {
		return 0
	}
	return int(id % 256)
}

// Close stops everything startFleet started, waits for it, and removes
// the WAL directories.
func (f *fleet) Close() error {
	err := f.stop()
	if f.tmpDir != "" {
		err = errors.Join(err, os.RemoveAll(f.tmpDir))
		f.tmpDir = ""
	}
	return err
}

// stop closes the gateway, drains the managers and stops the listeners
// and client connections, leaving the logs on disk for replayWAL.
func (f *fleet) stop() error {
	var errs []error
	if f.gw != nil {
		f.gw.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, m := range f.managers {
		if err := m.Close(ctx); err != nil {
			errs = append(errs, fmt.Errorf("closing manager: %w", err))
		}
	}
	for _, s := range f.servers {
		s.stop()
	}
	for _, tr := range f.transports {
		tr.CloseIdleConnections()
	}
	f.managers, f.servers, f.transports, f.gw = nil, nil, nil, nil
	return errors.Join(errs...)
}

// replayWAL times wal.Open over the log a closed backend left behind.
func replayWAL(dir string) (seconds float64, records int, err error) {
	t0 := time.Now()
	log, rep, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return 0, 0, err
	}
	seconds = time.Since(t0).Seconds()
	// Every surviving job has an accept record; terminal ones a mark too.
	records = len(rep.Unfinished) + 2*len(rep.Terminal)
	return seconds, records, log.Close()
}
