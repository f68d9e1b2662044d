package obs

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
)

// numBuckets covers every uint64: bucket 0 holds the value 0, bucket b ≥ 1
// holds values in [2^(b-1), 2^b - 1], so bucket 64 ends at MaxUint64.
const numBuckets = 65

// bucketOf maps a value to its log₂ bucket index.
func bucketOf(v uint64) int { return bits.Len64(v) }

// Bucket is one non-empty cell of a histogram snapshot.
type Bucket struct {
	// Lo and Hi are the inclusive value range of the bucket.
	Lo, Hi uint64
	// Count is the number of observations that fell in [Lo, Hi].
	Count uint64
}

// bucketRange returns the inclusive value range of bucket index b.
func bucketRange(b int) (lo, hi uint64) {
	if b == 0 {
		return 0, 0
	}
	lo = uint64(1) << (b - 1)
	if b == 64 {
		return lo, math.MaxUint64
	}
	return lo, (uint64(1) << b) - 1
}

// Histogram is a log₂-bucketed distribution of uint64 observations
// (latencies in nanoseconds, I/O counts, byte counts). It is safe for
// concurrent use and never allocates after creation, so it can sit on an
// I/O hot path as part of a trace sink.
//
// Quantiles are bucket-resolved: Quantile returns the upper bound of the
// bucket containing the requested rank, clamped to the exact observed
// minimum and maximum, so a one-point distribution reports that point
// exactly and errors are always ≤ 2× (one bucket).
type Histogram struct {
	mu     sync.Mutex
	counts [numBuckets]uint64
	n      uint64
	sum    float64 // float64: a sum of MaxUint64 samples must not wrap
	min    uint64
	max    uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.mu.Lock()
	h.counts[bucketOf(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += float64(v)
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Mean returns the average observation, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest observation, or 0 for an empty histogram.
func (h *Histogram) Min() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest observation, or 0 for an empty histogram.
func (h *Histogram) Max() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the bucket-resolved p-quantile (p in [0, 1]), or 0 for
// an empty histogram.
func (h *Histogram) Quantile(p float64) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(p)
}

func (h *Histogram) quantileLocked(p float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	// Rank of the requested observation, 1-based.
	rank := uint64(math.Ceil(p * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for b := 0; b < numBuckets; b++ {
		cum += h.counts[b]
		if cum >= rank {
			_, hi := bucketRange(b)
			if hi > h.max {
				hi = h.max
			}
			if hi < h.min {
				hi = h.min
			}
			return hi
		}
	}
	return h.max
}

// Buckets returns the non-empty buckets in increasing value order.
func (h *Histogram) Buckets() []Bucket {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []Bucket
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := bucketRange(b)
		out = append(out, Bucket{Lo: lo, Hi: hi, Count: c})
	}
	return out
}

// Merge folds every observation recorded in other into h. The two locks
// are taken in sequence, never together, so concurrent Observes on either
// histogram stay safe.
func (h *Histogram) Merge(other *Histogram) {
	other.mu.Lock()
	counts := other.counts
	n, sum, mn, mx := other.n, other.sum, other.min, other.max
	other.mu.Unlock()
	if n == 0 {
		return
	}
	h.mu.Lock()
	for b, c := range counts {
		h.counts[b] += c
	}
	if h.n == 0 || mn < h.min {
		h.min = mn
	}
	if mx > h.max {
		h.max = mx
	}
	h.n += n
	h.sum += sum
	h.mu.Unlock()
}

// Reset clears all observations.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.counts = [numBuckets]uint64{}
	h.n, h.sum, h.min, h.max = 0, 0, 0, 0
	h.mu.Unlock()
}

// Snapshot returns a plain-data copy for serialization, taken atomically.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	var buckets []Bucket
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := bucketRange(b)
		buckets = append(buckets, Bucket{Lo: lo, Hi: hi, Count: c})
	}
	return HistogramSnapshot{
		Count:   h.n,
		Mean:    safeMean(h.sum, h.n),
		Min:     h.min,
		Max:     h.max,
		P50:     h.quantileLocked(0.50),
		P99:     h.quantileLocked(0.99),
		Buckets: buckets,
	}
}

func safeMean(sum float64, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// HistogramSnapshot is the JSON-friendly view of a Histogram, with the
// two quantiles an operator pages on.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Mean    float64  `json:"mean"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	P50     uint64   `json:"p50"`
	P99     uint64   `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// String renders count/mean/p50/p95/max on one line.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f p50=%d p95=%d max=%d",
		h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Max())
	return b.String()
}
