package metricsexport

import (
	"math"
	"sync"

	"relaxsched/internal/api"
)

// Latency histogram buckets: power-of-two (HDR-style) upper bounds in
// seconds, from 0.25 ms doubling up to ~262 s, plus the implicit +Inf
// overflow bucket. Logarithmic buckets hold the relative quantile error
// to a factor of two at every scale, which is the right trade for a
// distribution spanning sub-millisecond cache hits and multi-minute
// million-vertex builds. Every node of a release shares these bounds, so
// the gateway's cluster aggregation is a lossless bucket-wise sum.
const (
	minBucketSec = 0.00025
	numBounds    = 21
)

// bucketBoundsMs are the wire-form (millisecond) bounds, built once.
var bucketBoundsMs = func() []float64 {
	bounds := make([]float64, numBounds)
	b := minBucketSec
	for i := range bounds {
		bounds[i] = b * 1000
		b *= 2
	}
	return bounds
}()

// Histogram is a concurrency-safe log-bucketed latency histogram, the
// live accumulator behind the api.LatencyHistogram wire type and, through
// Summarize, behind every api.LatencySummary. The zero value is not
// usable; construct with NewHistogram.
type Histogram struct {
	mu     sync.Mutex
	counts [numBounds + 1]int64
	sumSec float64
	maxSec float64
}

// NewHistogram returns an empty histogram on the package's shared
// power-of-two bounds.
func NewHistogram() *Histogram {
	return &Histogram{}
}

// Observe records one latency in seconds. Negative observations clamp to
// zero (they land in the first bucket) rather than corrupting the sum.
func (h *Histogram) Observe(seconds float64) {
	if seconds < 0 || math.IsNaN(seconds) {
		seconds = 0
	}
	idx := 0
	for b := minBucketSec; idx < numBounds && seconds > b; idx++ {
		b *= 2
	}
	h.mu.Lock()
	h.counts[idx]++
	h.sumSec += seconds
	h.maxSec = max(h.maxSec, seconds)
	h.mu.Unlock()
}

// Snapshot returns the histogram's current state in wire form.
func (h *Histogram) Snapshot() *api.LatencyHistogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	return &api.LatencyHistogram{
		BoundsMs: bucketBoundsMs,
		Counts:   append([]int64(nil), h.counts[:]...),
		SumMs:    h.sumSec * 1000,
		MaxMs:    h.maxSec * 1000,
	}
}

// Summarize derives a wire summary from a histogram: count, mean and max
// exactly, and p50/p95/p99 the way Prometheus' histogram_quantile does —
// find the bucket holding rank q·count and interpolate linearly inside
// it — clamped to the max. The first bucket interpolates up from zero and
// the +Inf overflow bucket up to the max. A nil or empty histogram
// summarizes to zeros.
func Summarize(h *api.LatencyHistogram) api.LatencySummary {
	if h == nil {
		return api.LatencySummary{}
	}
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	if n == 0 {
		return api.LatencySummary{}
	}
	return api.LatencySummary{
		Count:  n,
		MeanMs: h.SumMs / float64(n),
		P50Ms:  quantile(h, n, 0.50),
		P95Ms:  quantile(h, n, 0.95),
		P99Ms:  quantile(h, n, 0.99),
		MaxMs:  h.MaxMs,
	}
}

// quantile interpolates the q-quantile of a histogram holding n > 0
// observations; see Summarize.
func quantile(h *api.LatencyHistogram, n int64, q float64) float64 {
	rank := q * float64(n)
	var cum int64
	lower := 0.0
	for i, c := range h.Counts {
		upper := h.MaxMs
		if i < len(h.BoundsMs) {
			upper = h.BoundsMs[i]
		}
		if c > 0 && float64(cum+c) >= rank {
			return min(lower+(upper-lower)*(rank-float64(cum))/float64(c), h.MaxMs)
		}
		cum += c
		lower = upper
	}
	return h.MaxMs
}

// MergeHistograms adds src into dst bucket-wise, keeps the larger max,
// and returns dst. A nil dst starts from a copy of src; a nil src is a
// no-op. Histograms with different bounds (a version-skewed backend)
// cannot be merged — src is dropped rather than summed into the wrong
// buckets.
func MergeHistograms(dst, src *api.LatencyHistogram) *api.LatencyHistogram {
	if src == nil {
		return dst
	}
	if dst == nil {
		return &api.LatencyHistogram{
			BoundsMs: append([]float64(nil), src.BoundsMs...),
			Counts:   append([]int64(nil), src.Counts...),
			SumMs:    src.SumMs,
			MaxMs:    src.MaxMs,
		}
	}
	if len(dst.BoundsMs) != len(src.BoundsMs) || len(dst.Counts) != len(src.Counts) {
		return dst
	}
	for i := range dst.BoundsMs {
		if dst.BoundsMs[i] != src.BoundsMs[i] {
			return dst
		}
	}
	for i, c := range src.Counts {
		dst.Counts[i] += c
	}
	dst.SumMs += src.SumMs
	dst.MaxMs = max(dst.MaxMs, src.MaxMs)
	return dst
}
