package trace

import (
	"math/bits"
	"sync"
)

// histSubBits is the number of linear sub-buckets per power-of-two range,
// as a bit count: 16 sub-buckets bound the relative quantile error at
// 1/16 ≈ 6%.
const histSubBits = 4

// Histogram is a thread-safe log-bucketed histogram of non-negative int64
// samples — request latencies in microseconds, queue depths, sizes. Values
// land in power-of-two ranges subdivided into 2^histSubBits linear
// sub-buckets (the HDR-histogram layout), so quantiles are accurate to a
// few percent across the full int64 range while the whole structure stays
// a flat array of counters: Observe is a couple of shifts and one add,
// cheap enough for the request path.
//
// A nil *Histogram is valid and discards everything, mirroring Metrics.
type Histogram struct {
	mu     sync.Mutex
	counts [64 << histSubBits]int64
	n      int64
	sum    int64
	min    int64
	max    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// histBucket maps a value to its bucket index. Values below 2^histSubBits
// get exact buckets; larger values share a bucket with at most a
// 2^-histSubBits relative spread.
func histBucket(v int64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // position of the top bit, >= histSubBits
	sub := (v >> (exp - histSubBits)) & (1<<histSubBits - 1)
	return ((exp - histSubBits + 1) << histSubBits) + int(sub)
}

// histValue returns the inclusive upper edge of bucket b — quantiles
// report this edge, so they never understate a latency.
func histValue(b int) int64 {
	if b < 1<<histSubBits {
		return int64(b)
	}
	exp := b>>histSubBits + histSubBits - 1
	sub := int64(b&(1<<histSubBits-1)) | 1<<histSubBits
	return (sub+1)<<(exp-histSubBits) - 1
}

// Observe records one sample. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	h.counts[histBucket(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.mu.Unlock()
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the running total of all recorded samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile returns the q-quantile (q in [0, 1]) as the upper edge of the
// bucket holding the q-th sample, clamped to the observed min/max so exact
// extremes stay exact. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target sample, 1-based ceiling so Quantile(0) is the
	// first sample and Quantile(1) the last.
	rank := int64(q*float64(h.n-1)) + 1
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			v := histValue(b)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
