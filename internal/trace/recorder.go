package trace

import (
	"sync"
	"time"
)

// Span is one phase of a job's lifecycle. Offsets are nanoseconds since
// the timeline's Start, measured on the monotonic clock, so spans order
// and subtract correctly even across wall-clock adjustments. EndNanos is
// zero while the phase is still running; a terminal marker span has
// EndNanos == StartNanos.
type Span struct {
	// Name is the phase: accepted, wal-synced, queued, dispatched,
	// graph-build, cache-hit, executing, then a terminal marker (done,
	// failed, canceled, rejected).
	Name string `json:"name"`
	// StartNanos and EndNanos are monotonic offsets from the timeline
	// start.
	StartNanos int64 `json:"start_ns"`
	EndNanos   int64 `json:"end_ns,omitempty"`
	// Detail carries phase-specific context, e.g. the rank error observed
	// at dispatch ("rank=3 rank_err=2") or the failure message.
	Detail string `json:"detail,omitempty"`
}

// Timeline is one job's recorded lifecycle: its trace ID, the wall-clock
// anchor of offset zero, and the phase spans in order.
type Timeline struct {
	TraceID string
	JobID   int64
	Start   time.Time
	Spans   []Span
}

// maxDetailLen bounds a span detail so an arbitrarily long error message
// cannot grow the ring's memory footprint.
const maxDetailLen = 256

// Recorder keeps the last Capacity job timelines in a bounded ring:
// beginning timeline Capacity+1 evicts the oldest begun timeline,
// whatever state it is in. All methods are safe for concurrent use and
// take no locks beyond the recorder's own, so callers may invoke them
// while holding their own mutexes.
//
// Methods addressed at a job id that was never begun (or already evicted)
// are no-ops: recording must never fail the job it observes.
type Recorder struct {
	mu        sync.Mutex
	capacity  int
	timelines map[int64]*timeline
	order     []int64 // begun job ids, oldest first, for eviction
}

type timeline struct {
	traceID string
	start   time.Time
	spans   []Span
}

// DefaultCapacity is the timeline bound managers use when the caller does
// not choose one.
const DefaultCapacity = 4096

// NewRecorder returns a recorder bounded to capacity timelines
// (non-positive selects DefaultCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		capacity:  capacity,
		timelines: make(map[int64]*timeline),
	}
}

// Begin starts a job's timeline with an open "accepted" span. A second
// Begin for a live job id resets its timeline (job ids are unique in
// practice; the reset keeps the ring consistent if they are not).
func (r *Recorder) Begin(jobID int64, traceID string) {
	r.store(jobID, &timeline{
		traceID: traceID,
		start:   time.Now(),
		spans:   []Span{{Name: "accepted"}},
	})
}

// Put stores a complete, already-timed timeline under tl.JobID, with the
// same eviction and reset rules as Begin. It serves recorders that time a
// phase themselves — the gateway's submit hop — rather than stepping
// through it with Next and Finish.
func (r *Recorder) Put(tl Timeline) {
	spans := append([]Span(nil), tl.Spans...)
	for i := range spans {
		spans[i].Detail = clipDetail(spans[i].Detail)
	}
	r.store(tl.JobID, &timeline{traceID: tl.TraceID, start: tl.Start, spans: spans})
}

// store installs tl under jobID, evicting the oldest begun timeline when
// a new id would exceed the capacity.
func (r *Recorder) store(jobID int64, tl *timeline) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, live := r.timelines[jobID]; !live {
		if len(r.order) >= r.capacity {
			evict := r.order[0]
			r.order = r.order[1:]
			delete(r.timelines, evict)
		}
		r.order = append(r.order, jobID)
	}
	r.timelines[jobID] = tl
}

// Next closes the job's open span and opens a new one named name.
func (r *Recorder) Next(jobID int64, name, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tl, ok := r.timelines[jobID]
	if !ok {
		return
	}
	now := tl.now()
	tl.closeOpen(now)
	tl.spans = append(tl.spans, Span{Name: name, StartNanos: now, Detail: clipDetail(detail)})
}

// Amend rewrites the job's open span in place: a non-empty name renames
// it, a non-empty detail replaces its detail. It exists for phases whose
// identity is only known at completion — a graph fetch opens as
// "graph-build" and amends to "cache-hit" when the cache answered.
func (r *Recorder) Amend(jobID int64, name, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tl, ok := r.timelines[jobID]
	if !ok || len(tl.spans) == 0 {
		return
	}
	open := &tl.spans[len(tl.spans)-1]
	if open.EndNanos != 0 {
		return
	}
	if name != "" {
		open.Name = name
	}
	if detail != "" {
		open.Detail = clipDetail(detail)
	}
}

// Finish closes the job's open span and appends a zero-length terminal
// marker span named name (done, failed, canceled, rejected). The timeline
// stays queryable until evicted by the ring bound.
func (r *Recorder) Finish(jobID int64, name, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tl, ok := r.timelines[jobID]
	if !ok {
		return
	}
	now := tl.now()
	tl.closeOpen(now)
	tl.spans = append(tl.spans, Span{Name: name, StartNanos: now, EndNanos: now, Detail: clipDetail(detail)})
}

// Get returns a copy of the job's timeline, or false when it was never
// begun or has been evicted.
func (r *Recorder) Get(jobID int64) (Timeline, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tl, ok := r.timelines[jobID]
	if !ok {
		return Timeline{}, false
	}
	return Timeline{
		TraceID: tl.traceID,
		JobID:   jobID,
		Start:   tl.start,
		Spans:   append([]Span(nil), tl.spans...),
	}, true
}

// Len reports how many timelines the ring currently holds.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.timelines)
}

// now returns the monotonic offset since the timeline start, clamped to a
// minimum of 1 so no later event shares offset 0 with the accepted span.
func (t *timeline) now() int64 {
	ns := time.Since(t.start).Nanoseconds()
	if ns < 1 {
		ns = 1
	}
	return ns
}

// closeOpen closes the trailing span if it is still open.
func (t *timeline) closeOpen(now int64) {
	if len(t.spans) == 0 {
		return
	}
	open := &t.spans[len(t.spans)-1]
	if open.EndNanos == 0 {
		open.EndNanos = now
	}
}

func clipDetail(s string) string {
	if len(s) > maxDetailLen {
		return s[:maxDetailLen]
	}
	return s
}
