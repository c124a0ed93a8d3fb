// Package bitset provides dense bit sets over [0, n).
//
// Two variants are provided: Set, a plain single-threaded bit set used by the
// sequential executors and verifiers, and Atomic, a concurrent bit set whose
// Set/Get operations are safe for use from multiple goroutines and which
// underpins the "processed" and "dead" task state in the concurrent executor.
package bitset

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Set is a fixed-size bit set over [0, n). The zero value is an empty set of
// size 0; use New to create a set of a given size.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty Set with capacity for n bits.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{
		words: make([]uint64, (n+wordBits-1)/wordBits),
		n:     n,
	}
}

// Len returns the capacity of the set in bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i. It panics if i is out of range, since an out-of-range task
// index always indicates a programming error in this library.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is set.
func (s *Set) Get(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// Equal reports whether s and o have the same size and the same set bits.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Atomic is a fixed-size concurrent bit set over [0, n). All methods are safe
// for concurrent use. Bits can only be set, read, and reset wholesale; there
// is deliberately no concurrent Clear of a single bit because the executors
// only ever need monotone state transitions (unprocessed -> processed,
// live -> dead).
type Atomic struct {
	words []atomic.Uint64
	n     int
}

// NewAtomic returns an empty Atomic bit set with capacity for n bits.
func NewAtomic(n int) *Atomic {
	if n < 0 {
		n = 0
	}
	return &Atomic{
		words: make([]atomic.Uint64, (n+wordBits-1)/wordBits),
		n:     n,
	}
}

// Set sets bit i and reports whether this call changed it (i.e. it was
// previously clear). The test-and-set semantics let concurrent executors
// claim a task exactly once.
func (a *Atomic) Set(i int) bool {
	a.check(i)
	w := &a.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := w.Load()
		if old&mask != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|mask) {
			return true
		}
	}
}

// Get reports whether bit i is set.
func (a *Atomic) Get(i int) bool {
	a.check(i)
	return a.words[i/wordBits].Load()&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits. The result is a consistent snapshot
// only when no concurrent writers are active.
func (a *Atomic) Count() int {
	total := 0
	for i := range a.words {
		total += bits.OnesCount64(a.words[i].Load())
	}
	return total
}

// Reset clears every bit. It must not race with concurrent Set/Get calls.
func (a *Atomic) Reset() {
	for i := range a.words {
		a.words[i].Store(0)
	}
}

// Snapshot copies the current contents into a plain Set. Like Count, the
// result is only consistent when writers are quiescent.
func (a *Atomic) Snapshot() *Set {
	s := New(a.n)
	for i := range a.words {
		s.words[i] = a.words[i].Load()
	}
	return s
}

func (a *Atomic) check(i int) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, a.n))
	}
}
