package main

import (
	"math"
	"sort"
)

// summary describes one timing distribution the way the metrics guide
// asks: the median, the quartiles, the sample count, and the highest
// percentile that still has at least ten samples beyond it.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TailP is the percentile Tail reports (0 when the sample is too
	// small for any tail percentile).
	TailP float64 `json:"tail_p"`
	Tail  float64 `json:"tail"`
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentileSorted returns the nearest-rank percentile of an ascending
// sample: the smallest value with at least p percent of the sample at or
// below it. Nearest rank never interpolates, so a reported latency is
// always one a request actually saw.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := nearestRank(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// nearestRank is ceil(p% of n). The product is nudged down first: 99.9 %
// of 10 000 is 9990, not the 9990.000000000002 that floating point makes
// of it.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

func percentile(xs []float64, p float64) float64 {
	return percentileSorted(sortedCopy(xs), p)
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentiles are the candidates highestPercentile chooses from.
var tailPercentiles = []float64{90, 95, 99, 99.9}

// highestPercentile returns the highest candidate percentile that leaves
// at least ten samples beyond it in a sample of n, or 0 when even p90
// does not (n < 100).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-nearestRank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), because that
// is the function the driver computes spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // quartile i of 4
		pos := float64(i*(n+1)) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	q1, q3 := quartiles(xs)
	out := summary{N: len(xs), Median: median(xs), Q1: q1, Q3: q3}
	if p := highestPercentile(len(xs)); p > 0 {
		out.TailP, out.Tail = p, percentile(xs, p)
	}
	return out
}

// spread is the distance between the quartiles as a share of the median:
// the run-to-run noise figure both the driver and -compare use.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// windowPercentiles splits a phase into equal time windows and returns
// the p-th percentile of each window's samples, so that a GC pause or a
// noisy neighbour owns the windows it touched rather than the whole
// number; the caller picks among the windows by rank. at[i] is sample i's
// offset into the phase and vals[i] its value; windows that caught no
// sample are skipped.
func windowPercentiles(at, vals []float64, phase float64, windows int, p float64) []float64 {
	if windows < 1 || phase <= 0 {
		return nil
	}
	buckets := make([][]float64, windows)
	for i, t := range at {
		w := min(max(int(t/phase*float64(windows)), 0), windows-1)
		buckets[w] = append(buckets[w], vals[i])
	}
	var perWindow []float64
	for _, b := range buckets {
		if len(b) > 0 {
			perWindow = append(perWindow, percentile(b, p))
		}
	}
	return perWindow
}
