package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span names recorded by the traced pass. The nesting is fixed by where
// the benchmark places each recorder:
//
//	client.submit | client.status ⊃ [gateway.handler ⊃ gateway.backend_rt ⊃] node.handler
//	bench.op ⊃ sched.new, core.run_concurrent, workload.matches
const (
	spanClientSubmit = "client.submit"   // around api.Client.Submit
	spanClientStatus = "client.status"   // around api.Client.Status
	spanGateway      = "gateway.handler" // HTTP middleware around Gateway.Handler()
	spanBackendRT    = "gateway.backend_rt"
	spanNode         = "node.handler" // HTTP middleware around service.NewHandler
	spanExecOp       = "bench.op"     // one checked execution (exec workloads)
	spanSchedNew     = "sched.new"
	spanCoreRun      = "core.run_concurrent"
	spanMatches      = "workload.matches"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Trace; Start and End are nanoseconds since the log's origin.
type span struct {
	Trace  uint64 `json:"-"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog keeps spans in memory until the run ends. Recording can be
// switched off at run time, which is how one fleet serves both the
// untraced reference phase and the traced phases of a traced run.
type spanLog struct {
	origin  time.Time
	enabled atomic.Bool
	nextID  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (l *spanLog) now() int64 { return time.Since(l.origin).Nanoseconds() }

func (l *spanLog) on() bool { return l != nil && l.enabled.Load() }

func (l *spanLog) add(trace uint64, name, parent string, start, end int64) {
	l.mu.Lock()
	l.spans = append(l.spans, span{Trace: trace, Name: name, Parent: parent, Start: start, End: end})
	l.mu.Unlock()
}

// reset drops what was recorded so far (warm-up, or a phase whose spans
// do not feed the ledger).
func (l *spanLog) reset() {
	l.mu.Lock()
	l.spans = l.spans[:0]
	l.mu.Unlock()
}

func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// traceIDPrefix marks the X-Relax-Trace-Id values the generator mints, so
// the server-side recorders skip requests that are not the benchmark's.
const traceIDPrefix = "bench-"

func formatTraceID(id uint64) string { return traceIDPrefix + strconv.FormatUint(id, 16) }

// newTraceID mints the id of one request. The low bit says whether the
// request is a submit, so a server-side recorder can name the client span
// that is its parent without being told.
func (l *spanLog) newTraceID(submit bool) uint64 {
	id := l.nextID.Add(1) << 1
	if submit {
		id |= 1
	}
	return id
}

func clientSpanName(id uint64) string {
	if id&1 == 1 {
		return spanClientSubmit
	}
	return spanClientStatus
}

func parseTraceID(s string) (uint64, bool) {
	rest, ok := strings.CutPrefix(s, traceIDPrefix)
	if !ok {
		return 0, false
	}
	id, err := strconv.ParseUint(rest, 16, 64)
	return id, err == nil
}

// selfTimes returns, for every span, its duration minus the part of that
// interval its child spans cover. A child is a span of the same trace
// whose Parent names this span; overlapping children are counted once and
// a child is clipped to its parent's interval. The result is indexed like
// spans.
func selfTimes(spans []span) []int64 {
	type key struct {
		trace uint64
		name  string
	}
	children := make(map[key][]int, len(spans))
	for i, s := range spans {
		if s.Parent != "" {
			k := key{s.Trace, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[key{s.Trace, s.Name}]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// writeSpanFile writes one JSON object per span. Each line carries the
// trace id the generator put on the request, so `grep bench-1a2b` shows
// one request at every layer it crossed.
func writeSpanFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		line := struct {
			Trace string `json:"trace"`
			span
		}{formatTraceID(s.Trace), s}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return fmt.Errorf("writing span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing span file: %w", err)
	}
	return f.Close()
}
