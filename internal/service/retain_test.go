package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"relaxsched/internal/api"
	"relaxsched/internal/wal"
)

// fillDistinct sets every exported field reachable from v — through nested
// structs and pointers to structs — to a non-zero value, distinct from every
// other field's, so a field the finished store drops or swaps changes the
// status JSON. It fails on a kind it does not know how to fill, so a new
// kind of field cannot slip past the fidelity test unfilled.
func fillDistinct(t *testing.T, v reflect.Value, next *int) {
	t.Helper()
	if v.Type() == reflect.TypeFor[time.Time]() {
		*next++
		v.Set(reflect.ValueOf(time.Unix(1_700_000_000, int64(*next))))
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillDistinct(t, v.Field(i), next)
			}
		}
		return
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), next)
		return
	case reflect.Bool:
		v.SetBool(true)
		return
	}
	*next++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("text-%d", *next))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	default:
		t.Fatalf("fillDistinct: no rule for %s fields", v.Type())
	}
}

// filledStatus returns an api.JobStatus whose every field is set and
// distinct, in the given (real) state.
func filledStatus(t *testing.T, state api.JobState) api.JobStatus {
	t.Helper()
	var st api.JobStatus
	next := 0
	fillDistinct(t, reflect.ValueOf(&st).Elem(), &next)
	st.State = state
	return st
}

// jobFromStatus is the live *job whose status() is st.
func jobFromStatus(st api.JobStatus) *job {
	j := &job{
		id:        st.ID,
		spec:      st.Spec,
		state:     st.State,
		queueRank: st.QueueRank,
		queueTime: time.Duration(st.QueueNanos),
		submitted: st.SubmittedAt,
		recovered: st.Recovered,
	}
	if st.Error != "" {
		j.err = errors.New(st.Error)
	}
	if st.Result != nil {
		r := *st.Result
		j.result = &r
	}
	return j
}

func statusJSON(t *testing.T, m *Manager, id int64) string {
	t.Helper()
	st, err := m.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFinishedStatusFidelity: a job's status JSON is byte-identical before
// and after it moves from the live map into the finished store, for every
// field of api.JobStatus (recursing into the spec, its graph and the
// result), for every terminal state, and for texts longer than 64 KiB.
func TestFinishedStatusFidelity(t *testing.T) {
	m, err := NewManager(Options{startPaused: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	done := filledStatus(t, api.StateDone)
	long := filledStatus(t, api.StateDone)
	long.ID = done.ID + 1
	long.Error = strings.Repeat("e", 100<<10)
	long.Result.Summary = strings.Repeat("s", 100<<10) + "|"
	failed := filledStatus(t, api.StateFailed)
	failed.ID, failed.Result = done.ID+2, nil
	canceled := filledStatus(t, api.StateCanceled)
	canceled.ID, canceled.Result, canceled.Error = done.ID+3, nil, context.Canceled.Error()

	for _, want := range []api.JobStatus{done, long, failed, canceled} {
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		j := jobFromStatus(want)
		m.mu.Lock()
		m.jobs[j.id] = j
		m.mu.Unlock()
		live := statusJSON(t, m, j.id)
		m.mu.Lock()
		m.retainLocked(j)
		m.mu.Unlock()
		if _, ok := m.jobs[j.id]; ok {
			t.Fatalf("job %d still in the live map after retention", j.id)
		}
		stored := statusJSON(t, m, j.id)
		if live != string(wantJSON) {
			t.Fatalf("%s job: live status\n%.300s\nwant\n%.300s", want.State, live, wantJSON)
		}
		if stored != live {
			t.Fatalf("%s job: stored status\n%.300s\nlive status\n%.300s", want.State, stored, live)
		}
	}
	st, err := m.Status(long.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Error != long.Error || st.Result.Summary != long.Result.Summary {
		t.Fatalf("long texts came back as %d/%d bytes, want %d/%d",
			len(st.Error), len(st.Result.Summary), len(long.Error), len(long.Result.Summary))
	}
}

// TestFinishedStatusFidelityRecovered: terminal jobs replayed from the
// write-ahead log report exactly the status a live recovered job would.
func TestFinishedStatusFidelityRecovered(t *testing.T) {
	dir := t.TempDir()
	w, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	spec := filledStatus(t, api.StateDone).Spec
	for id := int64(1); id <= 3; id++ {
		if err := w.AppendAccepted(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AppendCompleted(1, wal.OutcomeDone); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendCompleted(2, wal.OutcomeFailed); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendCanceled(3); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	m := walManager(t, dir, Options{startPaused: true})
	defer m.Close(context.Background())
	for _, c := range []struct {
		id    int64
		state api.JobState
		err   error
	}{
		{1, api.StateDone, nil},
		{2, api.StateFailed, errRecoveredFailed},
		{3, api.StateCanceled, errRecoveredCanceled},
	} {
		got, err := m.Status(c.id)
		if err != nil {
			t.Fatal(err)
		}
		want := &job{id: c.id, spec: spec, state: c.state, err: c.err, submitted: got.SubmittedAt, recovered: true}
		wantJSON, err := json.Marshal(want.status())
		if err != nil {
			t.Fatal(err)
		}
		if gotJSON := statusJSON(t, m, c.id); gotJSON != string(wantJSON) {
			t.Fatalf("recovered job %d:\n%s\nwant\n%s", c.id, gotJSON, wantJSON)
		}
	}
}

// TestFinishedRecordHasNoPointers: a finished record must hold no Go
// pointer of any kind, or record blocks stop being memory the collector
// skips and every mark phase walks the retained history again.
func TestFinishedRecordHasNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.UnsafePointer,
			reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s: finished records must be pointer-free", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("finishedRecord", reflect.TypeFor[finishedRecord]())
}

// TestFinishedStatusAllocs: querying a finished job allocates only the
// Result copy — the strings are views of the store's text chunks.
func TestFinishedStatusAllocs(t *testing.T) {
	m, err := NewManager(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	st, err := m.Submit(testSpec("mis", "sequential"))
	if err != nil {
		t.Fatal(err)
	}
	if st = waitJob(t, m, st.ID); st.State != api.StateDone {
		t.Fatalf("job state %q (err %q), want done", st.State, st.Error)
	}
	const ceiling = 1
	if avg := testing.AllocsPerRun(100, func() { _, _ = m.Status(st.ID) }); avg > ceiling {
		t.Fatalf("Status of a finished job allocated %.1f times, ceiling %d", avg, ceiling)
	}
}

// TestFinishedStoreEviction: the store keeps exactly the newest retain
// jobs, drops text chunks no retained record uses, and a string handed out
// before its job was evicted keeps its bytes.
func TestFinishedStoreEviction(t *testing.T) {
	const retain = 3
	s := newFinishedStore(retain)
	summary := func(id int64) string { return fmt.Sprintf("%d:%s", id, strings.Repeat("x", textChunkBytes*5/8)) }
	var first api.JobStatus
	for id := int64(1); id <= 20; id++ {
		s.put(&job{id: id, state: api.StateDone, result: &api.JobResult{Summary: summary(id)}})
		if id == 1 {
			first, _ = s.get(1)
		}
		if len(s.index) != min(int(id), retain) {
			t.Fatalf("after %d puts the store holds %d jobs, want %d", id, len(s.index), min(int(id), retain))
		}
		// Two summaries never share a chunk, so the live chunks are at
		// most one per retained job.
		if len(s.chunks) > retain {
			t.Fatalf("after %d puts the store holds %d text chunks for %d jobs", id, len(s.chunks), retain)
		}
	}
	for id := int64(1); id <= 20; id++ {
		st, ok := s.get(id)
		if want := id > 20-retain; ok != want {
			t.Fatalf("job %d retained = %v, want %v", id, ok, want)
		}
		if ok && st.Result.Summary != summary(id) {
			t.Fatalf("job %d summary corrupted", id)
		}
	}
	if first.Result.Summary != summary(1) {
		t.Fatal("a status taken before eviction lost its summary bytes")
	}
	none := newFinishedStore(-1)
	none.put(&job{id: 1, state: api.StateDone})
	if _, ok := none.get(1); ok {
		t.Fatal("a store with a negative bound retained a job")
	}
}

// TestFinishedStatusConcurrentReaders: finished statuses are encoded
// outside the manager lock, as the HTTP handler does, while the workers
// keep appending later jobs' text to the same chunk. Under -race this
// checks that a handed-out view never covers bytes a later put writes.
func TestFinishedStatusConcurrentReaders(t *testing.T) {
	m, err := NewManager(Options{Workers: 2, QueueDepth: 1024, RetainJobs: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	spec := testSpec("mis", "sequential")
	spec.Graph.N, spec.Graph.Edges = 50, 100
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sub, err := m.Submit(spec)
				if err != nil {
					t.Error(err)
					return
				}
				for {
					// The previous job's status is a view into the chunk
					// the current job's finish appends to.
					for _, id := range []int64{sub.ID - 1, sub.ID} {
						if st, err := m.Status(id); err == nil {
							if _, err := json.Marshal(st); err != nil {
								t.Error(err)
								return
							}
						}
					}
					st, err := m.Status(sub.ID)
					if errors.Is(err, ErrUnknownJob) {
						break // finished and already evicted by the bound of 64
					}
					if err != nil {
						t.Error(err)
						return
					}
					if st.State == api.StateDone {
						if st.Spec.Workload != "mis" || !strings.HasPrefix(st.Result.Summary, "MIS") {
							t.Errorf("job %d came back as %q / %q", sub.ID, st.Spec.Workload, st.Result.Summary)
						}
						break
					}
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkRetainFinished measures what every finish pays under the
// manager lock — one put into a full store of the default size — plus the
// store's half of a Status call on a finished job.
func BenchmarkRetainFinished(b *testing.B) {
	const retain = 65536
	s := newFinishedStore(retain)
	j := &job{
		spec:      testSpec("mis", "sequential"),
		state:     api.StateDone,
		submitted: time.Now(),
		result:    &api.JobResult{Summary: "MIS size: 123", WastedWorkLabel: "extra iterations"},
	}
	for id := int64(1); id <= retain; id++ {
		j.id = id
		s.put(j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.id++
		s.put(j)
		if _, ok := s.get(j.id - retain/2); !ok {
			b.Fatal("retained job not found")
		}
	}
}
