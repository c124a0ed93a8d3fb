package sched

// deadPrefixThreshold is the dead-prefix length below which DropDeadPrefix
// leaves a partly consumed slice alone.
const deadPrefixThreshold = 64

// DropDeadPrefix is the one compaction rule of the slice-backed queues that
// are appended at the back and consumed from the front (the service's FIFO
// job queue, the ascending run of exactheap.Heap): s[:head] is dead,
// s[head:] is live. A fully consumed slice is reset; otherwise, once the
// dead prefix is at least deadPrefixThreshold long and at least half of s,
// the live part is copied to the front — amortized O(1) per consumed
// element, because at least as many elements died as are copied. Without it
// a queue that never fully drains grows its dead prefix by one element per
// operation forever. It returns the new slice and head.
func DropDeadPrefix[T any](s []T, head int) ([]T, int) {
	switch {
	case head == len(s):
		return s[:0], 0
	case head >= deadPrefixThreshold && head*2 >= len(s):
		return s[:copy(s, s[head:])], 0
	}
	return s, head
}
