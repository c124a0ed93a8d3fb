package service

import (
	"math"
	"time"
	"unsafe"

	"relaxsched/internal/api"
)

// The finished-job store keeps the RetainJobs most recent finished jobs
// queryable without making the garbage collector pay for them. A finished
// job's status is immutable, so it is flattened once, at retention, into a
// finishedRecord that holds no Go pointer: its numbers in place and its six
// strings as a run of bytes in an append-only text chunk. Record blocks,
// chunk bytes and the id index are all pointer-free memory the collector
// never marks, so its work no longer grows with the retained history (a
// *job per finished job made every mark phase walk ~65 000 objects; see
// EXPERIMENTS.md "svc-hot p99 was the collector marking retained jobs").

const (
	// recordsPerBlock sizes a record block (64 KiB): the ring grows by
	// whole blocks, so growth never copies the records already stored, and
	// a new manager's first finished job does not pay for a large block.
	recordsPerBlock = 256
	// textChunkBytes is the size of a fresh text chunk; a job whose text
	// alone is larger gets a chunk of exactly its own size.
	textChunkBytes = 16 << 10
)

// The strings of a finished job, in the order a record stores them.
const (
	textWorkload = iota
	textMode
	textGraphModel
	textError
	textSummary
	textWastedWorkLabel
	numTexts
)

// Record flag bits.
const (
	flagVerify uint8 = 1 << iota
	flagRecovered
	flagHasResult
	flagVerified
	flagGraphCacheHit
)

// Job states as a record stores them.
var recordStates = [...]api.JobState{
	api.StateQueued, api.StateRunning, api.StateDone, api.StateFailed, api.StateCanceled,
}

func encodeState(s api.JobState) uint8 {
	for i, st := range recordStates {
		if st == s {
			return uint8(i)
		}
	}
	panic("service: unknown job state " + string(s))
}

// finishedRecord is one retained job: every field of api.JobStatus, with
// the spec and result flattened, in memory that contains no Go pointer
// (TestFinishedRecordHasNoPointers enforces that). Its strings lie back to
// back from byte textOff of text chunk number chunk, in the textWorkload…
// order, with the lengths in textLen.
type finishedRecord struct {
	id         int64
	submitted  int64 // UnixNano
	queueNanos int64
	queueRank  int64

	// api.JobSpec
	k, threads, batch, source int64
	seed                      uint64
	damping, tolerance        float64
	priority, delta           uint32
	// api.GraphSpec
	graphN        int64
	graphEdges    int64
	graphExponent float64
	graphSeed     uint64

	// api.JobResult
	pops, stalePops, wasted, execNanos  int64
	steals, globalFallbacks, emptyPolls int64

	chunk   uint64
	textOff int
	textLen [numTexts]int

	state uint8
	flags uint8
}

// finishedStore is a FIFO ring of at most retain finished records plus the
// text chunks their strings live in. Callers hold Manager.mu.
//
// Text chunks are append-only: bytes below a chunk's length are written
// once and never again, and a chunk is dropped from the store (never
// reused) once the oldest retained record no longer refers to it. That is
// what lets status hand out strings that are views of chunk bytes
// (unsafe.String) instead of copies: a view outlives eviction safely,
// because it keeps its chunk reachable and the bytes it covers never
// change.
type finishedStore struct {
	retain int
	// blocks hold ring positions [i*recordsPerBlock, (i+1)*recordsPerBlock);
	// they are allocated as the ring first reaches them.
	blocks [][]finishedRecord
	head   int // ring position of the oldest record
	n      int // records held
	// index maps a retained job id to its ring position.
	index map[int64]uint32

	// chunks[i] is text chunk number firstChunk+i; the last one is the one
	// being appended to.
	chunks     [][]byte
	firstChunk uint64
}

func newFinishedStore(retain int) *finishedStore {
	// Job ids stop at math.MaxInt32 (Submit refuses beyond), so no ring
	// ever needs more positions than that, and a position fits a uint32.
	return &finishedStore{retain: min(retain, math.MaxInt32), index: make(map[int64]uint32)}
}

func (s *finishedStore) record(pos int) *finishedRecord {
	return &s.blocks[pos/recordsPerBlock][pos%recordsPerBlock]
}

// put retains a finished job, evicting the oldest record when the ring is
// full. A store with retain ≤ 0 forgets every job at once.
func (s *finishedStore) put(j *job) {
	if s.retain <= 0 {
		return
	}
	if s.n == s.retain {
		s.evictOldest()
	}
	pos := (s.head + s.n) % s.retain
	if b := pos / recordsPerBlock; b == len(s.blocks) {
		s.blocks = append(s.blocks, make([]finishedRecord, min(recordsPerBlock, s.retain-b*recordsPerBlock)))
	}
	var errText string
	if j.err != nil {
		errText = j.err.Error()
	}
	sp := &j.spec
	texts := [numTexts]string{
		textWorkload:   sp.Workload,
		textMode:       sp.Mode,
		textGraphModel: sp.Graph.Model,
		textError:      errText,
	}
	r := s.record(pos)
	*r = finishedRecord{
		id:            j.id,
		submitted:     j.submitted.UnixNano(),
		queueNanos:    j.queueTime.Nanoseconds(),
		queueRank:     int64(j.queueRank),
		k:             int64(sp.K),
		threads:       int64(sp.Threads),
		batch:         int64(sp.Batch),
		source:        int64(sp.Source),
		seed:          sp.Seed,
		damping:       sp.Damping,
		tolerance:     sp.Tolerance,
		priority:      sp.Priority,
		delta:         sp.Delta,
		graphN:        int64(sp.Graph.N),
		graphEdges:    sp.Graph.Edges,
		graphExponent: sp.Graph.Exponent,
		graphSeed:     sp.Graph.Seed,
		state:         encodeState(j.state),
	}
	if sp.Verify {
		r.flags |= flagVerify
	}
	if j.recovered {
		r.flags |= flagRecovered
	}
	if res := j.result; res != nil {
		r.flags |= flagHasResult
		if res.Verified {
			r.flags |= flagVerified
		}
		if res.GraphCacheHit {
			r.flags |= flagGraphCacheHit
		}
		r.pops, r.stalePops, r.wasted, r.execNanos = res.Pops, res.StalePops, res.Wasted, res.ExecNanos
		r.steals, r.globalFallbacks, r.emptyPolls = res.Steals, res.GlobalFallbacks, res.EmptyPolls
		texts[textSummary] = res.Summary
		texts[textWastedWorkLabel] = res.WastedWorkLabel
	}
	s.appendText(r, &texts)
	s.index[j.id] = uint32(pos)
	s.n++
}

// appendText copies a record's strings, back to back, onto the end of the
// current text chunk, opening a new chunk when they do not fit.
func (s *finishedStore) appendText(r *finishedRecord, texts *[numTexts]string) {
	total := 0
	for i, t := range texts {
		r.textLen[i] = len(t)
		total += len(t)
	}
	last := len(s.chunks) - 1
	if last < 0 || cap(s.chunks[last])-len(s.chunks[last]) < total {
		s.chunks = append(s.chunks, make([]byte, 0, max(textChunkBytes, total)))
		last++
	}
	c := s.chunks[last]
	r.chunk = s.firstChunk + uint64(last)
	r.textOff = len(c)
	for _, t := range texts {
		c = append(c, t...)
	}
	s.chunks[last] = c
}

// evictOldest forgets the oldest record and drops the text chunks no
// retained record refers to any more.
func (s *finishedStore) evictOldest() {
	delete(s.index, s.record(s.head).id)
	s.head = (s.head + 1) % s.retain
	s.n--
	keep := s.firstChunk + uint64(len(s.chunks)-1) // the chunk being appended to
	if s.n > 0 {
		keep = s.record(s.head).chunk
	}
	if drop := int(keep - s.firstChunk); drop > 0 {
		clear(s.chunks[:drop]) // release the dropped chunks to the collector
		s.chunks = s.chunks[drop:]
		s.firstChunk = keep
	}
}

// get returns a retained job's status. It allocates only the Result copy;
// the strings are views of the job's text chunk.
func (s *finishedStore) get(id int64) (api.JobStatus, bool) {
	pos, ok := s.index[id]
	if !ok {
		return api.JobStatus{}, false
	}
	r := s.record(int(pos))
	c := s.chunks[r.chunk-s.firstChunk]
	var texts [numTexts]string
	off := r.textOff
	for i, n := range r.textLen {
		if n > 0 {
			texts[i] = unsafe.String(&c[off], n)
		}
		off += n
	}
	st := api.JobStatus{
		ID:    r.id,
		State: recordStates[r.state],
		Spec: api.JobSpec{
			Workload: texts[textWorkload],
			Mode:     texts[textMode],
			Graph: api.GraphSpec{
				Model:    texts[textGraphModel],
				N:        int(r.graphN),
				Edges:    r.graphEdges,
				Exponent: r.graphExponent,
				Seed:     r.graphSeed,
			},
			Priority:  r.priority,
			K:         int(r.k),
			Threads:   int(r.threads),
			Batch:     int(r.batch),
			Seed:      r.seed,
			Delta:     r.delta,
			Damping:   r.damping,
			Tolerance: r.tolerance,
			Source:    int(r.source),
			Verify:    r.flags&flagVerify != 0,
		},
		Error:       texts[textError],
		QueueRank:   int(r.queueRank),
		QueueNanos:  r.queueNanos,
		SubmittedAt: time.Unix(0, r.submitted),
		Recovered:   r.flags&flagRecovered != 0,
	}
	if r.flags&flagHasResult != 0 {
		st.Result = &api.JobResult{
			Summary:         texts[textSummary],
			Verified:        r.flags&flagVerified != 0,
			Pops:            r.pops,
			StalePops:       r.stalePops,
			Wasted:          r.wasted,
			WastedWorkLabel: texts[textWastedWorkLabel],
			ExecNanos:       r.execNanos,
			GraphCacheHit:   r.flags&flagGraphCacheHit != 0,
			Steals:          r.steals,
			GlobalFallbacks: r.globalFallbacks,
			EmptyPolls:      r.emptyPolls,
		}
	}
	return st, true
}
