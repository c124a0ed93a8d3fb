// Package trace is the request-correlation and job-lifecycle substrate of
// the relaxd/relaxgw observability layer.
//
// It has three small parts, deliberately dependency-free so every layer of
// the system can import it:
//
//   - Trace IDs: an opaque hex ID minted at the first process that touches
//     a request (gateway or node), carried on the wire in the
//     X-Relax-Trace-Id header, threaded through context.Context, echoed in
//     every error envelope, and stamped on every job-scoped log line — so
//     one slow request is greppable across the whole fleet.
//   - The Recorder: a bounded per-manager ring of per-job span timelines
//     (accepted → wal-synced → queued → dispatched → graph-build/cache-hit
//     → executing → terminal), recorded with monotonic timestamps and
//     served by GET /v1/jobs/{id}/trace. The gateway keeps one too, for
//     the submit hop it prepends to each routed job's trace.
//   - NewLogger: the shared -log-level/-log-format flag semantics for the
//     daemons' structured (log/slog) logging.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"
)

// Header is the HTTP header carrying a request's trace ID between the
// gateway, the backends and back to the client. Handlers mint an ID when
// the header is absent, echo it on every response, and clients forward it
// on every outgoing request whose context carries one.
const Header = "X-Relax-Trace-Id"

// MaxIDLen bounds the trace IDs a server accepts from the wire; longer
// values are replaced with a freshly minted ID rather than stored or
// echoed, so a client cannot grow server-side buffers or log lines with an
// unbounded token.
const MaxIDLen = 64

// fallbackSeq numbers IDs when the system randomness source fails; the IDs
// are then unique within the process, which is all correlation needs.
var fallbackSeq atomic.Uint64

// NewID mints a new 16-hex-character trace ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := fallbackSeq.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// ctxKey keys the trace ID in a context.Context.
type ctxKey struct{}

// ContextWithID returns ctx carrying the trace ID.
func ContextWithID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// IDFromContext returns the trace ID carried by ctx, or "" when there is
// none.
func IDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(ctxKey{}).(string)
	return id
}

// SanitizeID validates an ID taken from the wire: a non-empty ID within
// MaxIDLen passes through, anything else is replaced with a fresh ID.
func SanitizeID(id string) string {
	if id == "" || len(id) > MaxIDLen {
		return NewID()
	}
	return id
}
