package core

import (
	"math"
	"sync/atomic"

	"relaxsched/internal/sched"
)

// TunableOptions is the executor-level hook of the adaptive relaxation
// controller (internal/control): a shared, atomically updated batch-size
// target that a running execution re-reads at every batch episode. Batch
// size is itself a relaxation knob — popping B items per scheduler
// acquisition behaves like growing the scheduler's rank bound by B — so the
// controller widens and tightens it alongside the job-queue k.
//
// A single TunableOptions may be shared by any number of concurrent
// executions (relaxd shares one across its whole worker pool): Batch and
// SetBatch are lock-free and safe from any goroutine. Workers pick the new
// size up at their next episode boundary; no synchronization with in-flight
// batches is attempted or needed, since a batch that started at the old
// size is indistinguishable from one that raced the update.
type TunableOptions struct {
	batch atomic.Int32
}

// NewTunable returns a TunableOptions starting at the given batch size
// (values below 1 are clamped to 1).
func NewTunable(batch int) *TunableOptions {
	t := &TunableOptions{}
	t.SetBatch(batch)
	return t
}

// SetBatch publishes a new batch-size target. Values below 1 are clamped to
// 1 (a zero would stall workers forever on empty pop buffers).
func (t *TunableOptions) SetBatch(batch int) {
	if batch < 1 {
		batch = 1
	}
	if batch > math.MaxInt32 {
		batch = math.MaxInt32
	}
	t.batch.Store(int32(batch))
}

// Batch returns the current batch-size target.
func (t *TunableOptions) Batch() int { return int(t.batch.Load()) }

// episodeBatch is the per-episode re-read an engine worker performs: it
// returns the worker's pop buffer, re-sized only when the tunable target
// actually moved (the common case is no change, costing one atomic load) and
// re-allocated only to grow past the capacity it already has. A nil tunable
// returns the buffer unchanged, keeping the fixed-BatchSize path untouched.
func episodeBatch(tun *TunableOptions, buf []sched.Item) []sched.Item {
	if tun == nil {
		return buf
	}
	b := tun.Batch()
	if b > cap(buf) {
		return make([]sched.Item, b)
	}
	return buf[:b]
}
