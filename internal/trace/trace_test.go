package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewIDShapeAndUniqueness(t *testing.T) {
	seen := make(map[string]bool)
	hex := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for i := 0; i < 1000; i++ {
		id := NewID()
		if !hex.MatchString(id) {
			t.Fatalf("NewID() = %q, want 16 lowercase hex chars", id)
		}
		if seen[id] {
			t.Fatalf("NewID() repeated %q within 1000 draws", id)
		}
		seen[id] = true
	}
}

func TestContextRoundTrip(t *testing.T) {
	if got := IDFromContext(context.Background()); got != "" {
		t.Fatalf("IDFromContext(empty ctx) = %q, want empty", got)
	}
	ctx := ContextWithID(context.Background(), "abc123")
	if got := IDFromContext(ctx); got != "abc123" {
		t.Fatalf("IDFromContext = %q, want abc123", got)
	}
}

func TestSanitizeID(t *testing.T) {
	if got := SanitizeID("ok-id"); got != "ok-id" {
		t.Fatalf("SanitizeID(valid) = %q, want passthrough", got)
	}
	if got := SanitizeID(""); got == "" {
		t.Fatal("SanitizeID(empty) returned empty, want fresh ID")
	}
	long := strings.Repeat("x", MaxIDLen+1)
	if got := SanitizeID(long); got == long || got == "" {
		t.Fatalf("SanitizeID(overlong) = %q, want replacement ID", got)
	}
	if got := SanitizeID(strings.Repeat("y", MaxIDLen)); len(got) != MaxIDLen {
		t.Fatalf("SanitizeID(max-length) rejected a legal ID: %q", got)
	}
}

func TestRecorderLifecycle(t *testing.T) {
	r := NewRecorder(8)
	r.Begin(1, "tid-1")
	r.Next(1, "queued", "")
	r.Next(1, "dispatched", "rank_err=2")
	r.Amend(1, "", "rank_err=3")
	r.Next(1, "graph-build", "")
	r.Amend(1, "cache-hit", "")
	r.Next(1, "executing", "")
	r.Finish(1, "done", "")

	tl, ok := r.Get(1)
	if !ok {
		t.Fatal("Get(1) missing after full lifecycle")
	}
	if tl.TraceID != "tid-1" || tl.JobID != 1 {
		t.Fatalf("timeline identity = (%q, %d), want (tid-1, 1)", tl.TraceID, tl.JobID)
	}
	names := make([]string, len(tl.Spans))
	for i, s := range tl.Spans {
		names[i] = s.Name
	}
	want := []string{"accepted", "queued", "dispatched", "cache-hit", "executing", "done"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("span names = %v, want %v", names, want)
	}
	// Amend replaced the dispatch detail in place.
	if tl.Spans[2].Detail != "rank_err=3" {
		t.Fatalf("amended dispatch detail = %q, want rank_err=3", tl.Spans[2].Detail)
	}
	// Offsets are monotone non-decreasing, every non-terminal span closed,
	// and the terminal marker has zero length.
	var prev int64
	for i, s := range tl.Spans {
		if s.StartNanos < prev {
			t.Fatalf("span %d starts at %d before previous offset %d", i, s.StartNanos, prev)
		}
		if s.EndNanos < s.StartNanos {
			t.Fatalf("span %d ends (%d) before it starts (%d)", i, s.EndNanos, s.StartNanos)
		}
		if s.EndNanos == 0 {
			t.Fatalf("span %d (%s) left open in a finished timeline", i, s.Name)
		}
		prev = s.StartNanos
	}
	last := tl.Spans[len(tl.Spans)-1]
	if last.EndNanos != last.StartNanos {
		t.Fatalf("terminal span has length %d, want 0", last.EndNanos-last.StartNanos)
	}
}

func TestRecorderOpenSpanVisible(t *testing.T) {
	r := NewRecorder(8)
	r.Begin(7, "tid-7")
	r.Next(7, "queued", "")
	tl, ok := r.Get(7)
	if !ok {
		t.Fatal("Get(7) missing for in-flight job")
	}
	if got := tl.Spans[len(tl.Spans)-1]; got.Name != "queued" || got.EndNanos != 0 {
		t.Fatalf("open span = %+v, want open queued span", got)
	}
}

func TestRecorderEvictsOldest(t *testing.T) {
	r := NewRecorder(3)
	for id := int64(1); id <= 5; id++ {
		r.Begin(id, fmt.Sprintf("tid-%d", id))
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want capacity 3", r.Len())
	}
	for _, gone := range []int64{1, 2} {
		if _, ok := r.Get(gone); ok {
			t.Fatalf("job %d survived eviction", gone)
		}
	}
	for _, kept := range []int64{3, 4, 5} {
		if _, ok := r.Get(kept); !ok {
			t.Fatalf("job %d evicted while newer than capacity", kept)
		}
	}
}

// TestRecorderPut: a complete timeline stored with Put reads back as
// given (not aliased to the caller's spans) and shares Begin's eviction
// order.
func TestRecorderPut(t *testing.T) {
	r := NewRecorder(2)
	start := time.Now()
	spans := []Span{{Name: "gateway.submit", StartNanos: 0, EndNanos: 500, Detail: "backend=b1"}}
	r.Put(Timeline{TraceID: "t1", JobID: 1, Start: start, Spans: spans})
	spans[0].Name = "mutated"
	tl, ok := r.Get(1)
	if !ok || tl.TraceID != "t1" || !tl.Start.Equal(start) || len(tl.Spans) != 1 ||
		tl.Spans[0] != (Span{Name: "gateway.submit", EndNanos: 500, Detail: "backend=b1"}) {
		t.Fatalf("Put/Get = %+v, %v", tl, ok)
	}
	r.Begin(2, "t2")
	r.Put(Timeline{JobID: 3})
	if _, ok := r.Get(1); ok || r.Len() != 2 {
		t.Fatalf("Put did not evict the oldest: len=%d", r.Len())
	}
}

func TestRecorderUnknownJobNoops(t *testing.T) {
	r := NewRecorder(2)
	// None of these may panic or create state.
	r.Next(99, "queued", "")
	r.Amend(99, "x", "y")
	r.Finish(99, "done", "")
	if _, ok := r.Get(99); ok {
		t.Fatal("no-op methods materialized a timeline")
	}
}

func TestRecorderGetReturnsCopy(t *testing.T) {
	r := NewRecorder(2)
	r.Begin(1, "t")
	tl, _ := r.Get(1)
	tl.Spans[0].Name = "mutated"
	again, _ := r.Get(1)
	if again.Spans[0].Name != "accepted" {
		t.Fatal("Get returned a view into recorder-owned memory")
	}
}

func TestRecorderDetailClipped(t *testing.T) {
	r := NewRecorder(2)
	r.Begin(1, "t")
	r.Next(1, "failed", strings.Repeat("e", maxDetailLen*4))
	tl, _ := r.Get(1)
	if got := len(tl.Spans[1].Detail); got != maxDetailLen {
		t.Fatalf("detail length = %d, want clipped to %d", got, maxDetailLen)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := int64(w*1000 + i)
				r.Begin(id, NewID())
				r.Next(id, "queued", "")
				r.Finish(id, "done", "")
				r.Get(id)
				r.Put(Timeline{JobID: id + 500, Spans: []Span{{Name: "gateway.submit"}}})
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != 64 {
		t.Fatalf("Len = %d, want capacity 64 after overflow", r.Len())
	}
}

func TestNewLoggerLevelsAndFormats(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "warn", "json")
	if err != nil {
		t.Fatalf("NewLogger: %v", err)
	}
	lg.Info("dropped")
	lg.Warn("kept", "job_id", 42, "trace_id", "abc")
	line := buf.String()
	if strings.Contains(line, "dropped") {
		t.Fatal("info line emitted at warn level")
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("json format produced non-JSON line %q: %v", line, err)
	}
	if rec["msg"] != "kept" || rec["trace_id"] != "abc" {
		t.Fatalf("json record = %v, want msg=kept trace_id=abc", rec)
	}

	buf.Reset()
	lg, err = NewLogger(&buf, "", "")
	if err != nil {
		t.Fatalf("NewLogger defaults: %v", err)
	}
	lg.Debug("dropped")
	lg.Info("kept")
	if out := buf.String(); strings.Contains(out, "dropped") || !strings.Contains(out, "kept") {
		t.Fatalf("default level not info: %q", out)
	}

	if _, err := NewLogger(&buf, "verbose", "text"); err == nil {
		t.Fatal("NewLogger accepted bogus level")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Fatal("NewLogger accepted bogus format")
	}
}

func TestDiscardLogger(t *testing.T) {
	lg := DiscardLogger()
	lg.Error("nobody hears this") // must not panic
	if lg.Enabled(context.Background(), 12) {
		t.Fatal("discard logger claims to be enabled")
	}
}
