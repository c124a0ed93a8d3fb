// Package orderstat provides order-statistic structures over a dense key
// universe [0, n).
//
// The scheduler instrumentation uses these structures to measure, for every
// ApproxGetMin call, the rank of the returned element among all live elements
// and the number of priority inversions suffered by each element — the two
// quantities the paper's (k, φ)-relaxed scheduler definition bounds. Both are
// implemented on top of Fenwick (binary indexed) trees so that rank queries,
// membership updates, and prefix-range inversion accounting all run in
// O(log n).
package orderstat

import "fmt"

// Fenwick is a Fenwick tree (binary indexed tree) over [0, n) supporting
// point updates and prefix sums in O(log n).
type Fenwick struct {
	tree []int64
	n    int
}

// NewFenwick returns a Fenwick tree of size n with all values zero.
func NewFenwick(n int) *Fenwick {
	if n < 0 {
		n = 0
	}
	return &Fenwick{tree: make([]int64, n+1), n: n}
}

// Add adds delta to position i.
func (f *Fenwick) Add(i int, delta int64) {
	if i < 0 || i >= f.n {
		panic(fmt.Sprintf("orderstat: index %d out of range [0,%d)", i, f.n))
	}
	for i++; i <= f.n; i += i & (-i) {
		f.tree[i] += delta
	}
}

// PrefixSum returns the sum of positions [0, i]. It returns 0 for i < 0 and
// the total sum for i >= n-1.
func (f *Fenwick) PrefixSum(i int) int64 {
	if i < 0 {
		return 0
	}
	if i >= f.n {
		i = f.n - 1
	}
	var s int64
	for j := i + 1; j > 0; j -= j & (-j) {
		s += f.tree[j]
	}
	return s
}

// RangeSum returns the sum of positions [lo, hi] (inclusive).
func (f *Fenwick) RangeSum(lo, hi int) int64 {
	if hi < lo {
		return 0
	}
	return f.PrefixSum(hi) - f.PrefixSum(lo-1)
}

// Total returns the sum over all positions.
func (f *Fenwick) Total() int64 {
	return f.PrefixSum(f.n - 1)
}

// Set is an order-statistic set over keys in [0, n). Keys can be inserted and
// removed; Rank returns the 1-based rank of a key among the keys currently in
// the set. It is used to compute the rank error of relaxed schedulers.
type Set struct {
	f       *Fenwick
	present []bool
	size    int
}

// NewSet returns an empty order-statistic set over [0, n).
func NewSet(n int) *Set {
	return &Set{f: NewFenwick(n), present: make([]bool, n)}
}

// Len returns the number of keys currently in the set.
func (s *Set) Len() int { return s.size }

// Contains reports whether key is in the set.
func (s *Set) Contains(key int) bool {
	s.check(key)
	return s.present[key]
}

// Insert adds key to the set. Inserting a key that is already present is a
// no-op and returns false.
func (s *Set) Insert(key int) bool {
	s.check(key)
	if s.present[key] {
		return false
	}
	s.present[key] = true
	s.size++
	s.f.Add(key, 1)
	return true
}

// Remove deletes key from the set. Removing an absent key is a no-op and
// returns false.
func (s *Set) Remove(key int) bool {
	s.check(key)
	if !s.present[key] {
		return false
	}
	s.present[key] = false
	s.size--
	s.f.Add(key, -1)
	return true
}

// Rank returns the 1-based rank of key among the keys currently in the set:
// 1 + the number of present keys strictly smaller than key. The key itself
// need not be present (the result is then the rank it would have).
func (s *Set) Rank(key int) int {
	s.check(key)
	return int(s.f.PrefixSum(key-1)) + 1
}

// CountLess returns the number of present keys strictly smaller than key.
func (s *Set) CountLess(key int) int {
	s.check(key)
	return int(s.f.PrefixSum(key - 1))
}

// Min returns the smallest key in the set, or -1 if the set is empty.
// It runs in O(log^2 n) via binary search on prefix sums.
func (s *Set) Min() int {
	if s.size == 0 {
		return -1
	}
	return s.Select(1)
}

// Select returns the key with 1-based rank r, or -1 if r is out of range.
func (s *Set) Select(r int) int {
	if r < 1 || r > s.size {
		return -1
	}
	// Binary search over the Fenwick tree: find the smallest index i such
	// that PrefixSum(i) >= r.
	lo, hi := 0, s.f.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.f.PrefixSum(mid) >= int64(r) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (s *Set) check(key int) {
	if key < 0 || key >= len(s.present) {
		panic(fmt.Sprintf("orderstat: key %d out of range [0,%d)", key, len(s.present)))
	}
}

// RangeAdder supports range-add / point-query over [0, n) in O(log n), used
// to account priority inversions: when an element of priority p is removed,
// every live element with priority < p suffers one inversion, which is a
// range add on the prefix [0, p).
type RangeAdder struct {
	f *Fenwick
}

// NewRangeAdder returns a RangeAdder over [0, n) with all values zero.
func NewRangeAdder(n int) *RangeAdder {
	return &RangeAdder{f: NewFenwick(n + 1)}
}

// AddRange adds delta to every position in [lo, hi] (inclusive). Out-of-range
// bounds are clamped; an empty range is a no-op.
func (r *RangeAdder) AddRange(lo, hi int, delta int64) {
	n := r.f.n - 1
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	if hi < lo {
		return
	}
	r.f.Add(lo, delta)
	r.f.Add(hi+1, -delta)
}

// Get returns the accumulated value at position i.
func (r *RangeAdder) Get(i int) int64 {
	n := r.f.n - 1
	if i < 0 || i >= n {
		panic(fmt.Sprintf("orderstat: index %d out of range [0,%d)", i, n))
	}
	return r.f.PrefixSum(i)
}
