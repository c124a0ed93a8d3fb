package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"relaxsched/internal/api"
	"relaxsched/internal/trace"
)

// newTestServer starts a manager plus its HTTP handler, wired for cleanup.
func newTestServer(t *testing.T, opts Options) (*Manager, *httptest.Server) {
	t.Helper()
	m, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return m, srv
}

func postJob(t *testing.T, url string, spec api.JobSpec) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, payload
}

// TestHTTPSubmitPollRoundTrip: the curl-equivalent round trip — submit a
// job, poll to done, check the verified result, then repeat the identical
// submit and observe the graph-cache hit in the job's own result.
func TestHTTPSubmitPollRoundTrip(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 2})

	spec := testSpec("mis", "concurrent")
	resp, payload := postJob(t, srv.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %s: %s", resp.Status, payload)
	}
	var st api.JobStatus
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatal(err)
	}
	first := pollHTTP(t, srv.URL, st.ID)
	if first.State != api.StateDone || !first.Result.Verified {
		t.Fatalf("first job: %+v", first)
	}
	if first.Result.GraphCacheHit {
		t.Fatal("first job claims a cache hit on a cold cache")
	}

	resp, payload = postJob(t, srv.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit returned %s: %s", resp.Status, payload)
	}
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatal(err)
	}
	second := pollHTTP(t, srv.URL, st.ID)
	if second.State != api.StateDone {
		t.Fatalf("second job: %+v", second)
	}
	if !second.Result.GraphCacheHit {
		t.Fatal("identical re-submit missed the graph cache")
	}

	m, err := api.NewClient(srv.URL).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Cache.Hits < 1 || m.Cache.Misses != 1 {
		t.Fatalf("cache stats after repeat submit: %+v", m.Cache)
	}
	if m.Jobs.Done != 2 {
		t.Fatalf("done count = %d", m.Jobs.Done)
	}
}

func pollHTTP(t *testing.T, url string, id int64) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", url, id))
		if err != nil {
			t.Fatal(err)
		}
		var st api.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State != api.StateQueued && st.State != api.StateRunning {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %d did not finish over HTTP", id)
	return api.JobStatus{}
}

func TestHTTPBadRequests(t *testing.T) {
	_, srv := newTestServer(t, Options{startPaused: true, Workers: 1})

	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{`},
		{"unknown field", `{"workload":"mis","frobnicate":1}`},
		{"unknown workload", `{"workload":"galactic","graph":{"n":10}}`},
		{"unknown mode", `{"workload":"mis","mode":"quantum","graph":{"n":10}}`},
		{"missing graph", `{"workload":"mis"}`},
		{"bad model", `{"workload":"mis","graph":{"n":10,"model":"hypercube"}}`},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %s, body %s", c.name, resp.Status, payload)
		}
		var msg map[string]string
		if err := json.Unmarshal(payload, &msg); err != nil || msg["message"] == "" {
			t.Fatalf("%s: error body %q", c.name, payload)
		}
	}

	// Unknown job id -> 404; non-numeric id -> 400; wrong method -> 405.
	statusOf := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := statusOf("/v1/jobs/999"); got != http.StatusNotFound {
		t.Fatalf("unknown id: %d", got)
	}
	if got := statusOf("/v1/jobs/abc"); got != http.StatusBadRequest {
		t.Fatalf("bad id: %d", got)
	}
	if got := statusOf("/v1/jobs"); got != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs: %d", got)
	}
}

// TestHTTPQueueFull429: a paused manager with a tiny queue returns 429 once
// the bound is hit.
func TestHTTPQueueFull429(t *testing.T) {
	_, srv := newTestServer(t, Options{startPaused: true, Workers: 1, QueueDepth: 2})
	spec := testSpec("mis", "sequential")
	for i := 0; i < 2; i++ {
		resp, payload := postJob(t, srv.URL, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s %s", i, resp.Status, payload)
		}
	}
	resp, payload := postJob(t, srv.URL, spec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %s %s", resp.Status, payload)
	}
}

// TestHTTPDraining503: after Close begins, submissions get 503 while
// healthz stays 200 but reports the drain explicitly — a draining node
// is alive and finishing work, not dead, and probes must be able to tell
// the two apart without decoding a 503.
func TestHTTPDraining503(t *testing.T) {
	m, srv := newTestServer(t, Options{Workers: 1})
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, payload := postJob(t, srv.URL, testSpec("mis", "sequential"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: %s %s", resp.Status, payload)
	}
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %s, want 200", hresp.Status)
	}
	var health map[string]string
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != api.StatusDraining {
		t.Fatalf("healthz status while draining = %q, want %q", health["status"], api.StatusDraining)
	}
}

// TestHTTPJobTrace: a finished job's lifecycle is reconstructable from
// GET /v1/jobs/{id}/trace — the caller-supplied X-Relax-Trace-Id is kept
// for the job's whole life and echoed back, the span names walk the
// documented lifecycle in order, and offsets are monotone.
func TestHTTPJobTrace(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1})

	body, err := json.Marshal(testSpec("mis", "sequential"))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, "trace-http-test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if got := resp.Header.Get(trace.Header); got != "trace-http-test" {
		t.Fatalf("submit echoed trace id %q, want trace-http-test", got)
	}
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if final := pollHTTP(t, srv.URL, st.ID); final.State != api.StateDone {
		t.Fatalf("job ended %s: %+v", final.State, final)
	}

	tresp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/trace", srv.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: %s", tresp.Status)
	}
	var tr api.JobTrace
	if err := json.NewDecoder(tresp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.ID != st.ID {
		t.Fatalf("trace id = %d, want %d", tr.ID, st.ID)
	}
	if tr.TraceID != "trace-http-test" {
		t.Fatalf("trace carries trace_id %q, want trace-http-test", tr.TraceID)
	}
	want := []string{"accepted", "queued", "dispatched", "graph-build", "executing", "done"}
	i := 0
	var prev int64
	for _, s := range tr.Spans {
		if s.StartNanos < prev {
			t.Fatalf("span %q starts at %d, before previous start %d", s.Name, s.StartNanos, prev)
		}
		prev = s.StartNanos
		if i < len(want) && s.Name == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("trace spans %v missing lifecycle subsequence %v (matched %d)", tr.Spans, want, i)
	}

	// Unknown jobs answer the usual envelope, with the request's trace id
	// stamped in.
	ureq, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/999999/trace", nil)
	if err != nil {
		t.Fatal(err)
	}
	ureq.Header.Set(trace.Header, "trace-unknown")
	uresp, err := http.DefaultClient.Do(ureq)
	if err != nil {
		t.Fatal(err)
	}
	defer uresp.Body.Close()
	if uresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace fetch: %s", uresp.Status)
	}
	var envelope api.Error
	if err := json.NewDecoder(uresp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Code != api.CodeUnknownJob {
		t.Fatalf("unknown trace code = %q, want %q", envelope.Code, api.CodeUnknownJob)
	}
	if envelope.TraceID != "trace-unknown" {
		t.Fatalf("error envelope trace_id = %q, want trace-unknown", envelope.TraceID)
	}
}

// TestHTTPWorkloadListing: the listing endpoint serves the registry in
// deterministic sorted order with full documentation fields.
func TestHTTPWorkloadListing(t *testing.T) {
	_, srv := newTestServer(t, Options{startPaused: true, Workers: 1})
	resp, err := http.Get(srv.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []api.WorkloadInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	want := []string{"coloring", "kcore", "matching", "mis", "pagerank", "sssp"}
	if len(infos) != len(want) {
		t.Fatalf("listing holds %d workloads, want %d", len(infos), len(want))
	}
	for i, info := range infos {
		if info.Name != want[i] {
			t.Fatalf("listing[%d] = %q, want %q", i, info.Name, want[i])
		}
		if info.Kind == "" || info.Brief == "" || info.Input == "" || info.WastedWork == "" {
			t.Fatalf("listing[%d] incomplete: %+v", i, info)
		}
	}
}

// TestHTTPHealthz: a healthy server reports ok.
func TestHTTPHealthz(t *testing.T) {
	_, srv := newTestServer(t, Options{startPaused: true, Workers: 1})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
}
