package core

import "relaxsched/internal/bitset"

// execState is what the static adapter needs of a State implementation: the
// read view problems query plus the executor's own processed mark.
type execState interface {
	State
	markProcessed(v int)
}

// seqState is the State implementation used by the single-threaded executors.
type seqState struct {
	labels    []uint32
	processed *bitset.Set
}

var _ State = (*seqState)(nil)

func newSeqState(labels []uint32) *seqState {
	return &seqState{labels: labels, processed: bitset.New(len(labels))}
}

func (s *seqState) NumTasks() int        { return len(s.labels) }
func (s *seqState) Processed(v int) bool { return s.processed.Get(v) }
func (s *seqState) Label(v int) uint32   { return s.labels[v] }
func (s *seqState) Labels() []uint32     { return s.labels }
func (s *seqState) markProcessed(v int)  { s.processed.Set(v) }

// concState is the State implementation used by RunConcurrent. Processed
// bits are set with sequentially consistent atomics, so a task that observes
// a dependency as processed also observes every write its Process performed.
type concState struct {
	labels    []uint32
	processed *bitset.Atomic
}

var _ State = (*concState)(nil)

func newConcState(labels []uint32) *concState {
	return &concState{labels: labels, processed: bitset.NewAtomic(len(labels))}
}

func (s *concState) NumTasks() int        { return len(s.labels) }
func (s *concState) Processed(v int) bool { return s.processed.Get(v) }
func (s *concState) Label(v int) uint32   { return s.labels[v] }
func (s *concState) Labels() []uint32     { return s.labels }
func (s *concState) markProcessed(v int)  { s.processed.Set(v) }
