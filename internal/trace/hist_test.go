package trace

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/util"
)

func TestHistogramExactSmallValues(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < 16; v++ {
		h.Observe(v)
	}
	if h.Count() != 16 || h.Sum() != 120 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	// Small values land in exact buckets: every quantile is a recorded value.
	if got := h.Quantile(0); got != 0 {
		t.Errorf("q0 = %d, want 0", got)
	}
	if got := h.Quantile(1); got != 15 {
		t.Errorf("q1 = %d, want 15", got)
	}
	if got := h.Quantile(0.5); got != 7 && got != 8 {
		t.Errorf("q50 = %d, want 7 or 8", got)
	}
}

// TestHistogramQuantileError: for a wide range of magnitudes, the reported
// quantile of a uniform sample never deviates from the true quantile by
// more than the bucket spread (~2/16) plus rank rounding.
func TestHistogramQuantileError(t *testing.T) {
	h := NewHistogram()
	const n = 20000
	rng := util.NewRNG(7)
	vals := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		// Log-uniform in [1, 2^40).
		v := int64(1) << (rng.Intn(40))
		v += int64(rng.Uint64() % uint64(v))
		h.Observe(v)
		vals = append(vals, v)
	}
	// The histogram never understates: quantile >= the bucket's content,
	// and relative error vs a sorted reference stays under 2/16 + slack.
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		want := sorted[int(q*float64(n-1))]
		rel := math.Abs(float64(got)-float64(want)) / float64(want)
		if rel > 0.15 {
			t.Errorf("q%.2f: got %d want %d (rel err %.3f)", q, got, want, rel)
		}
	}
	if h.Quantile(1) != sorted[n-1] {
		t.Errorf("q1 %d != max %d", h.Quantile(1), sorted[n-1])
	}
	if h.Quantile(0) != sorted[0] {
		t.Errorf("q0 %d != min %d", h.Quantile(0), sorted[0])
	}
}

func TestHistogramNilAndNegative(t *testing.T) {
	var h *Histogram
	h.Observe(5) // must not panic
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must report zeros")
	}
	g := NewHistogram()
	g.Observe(-17)
	if g.Count() != 1 || g.Quantile(1) != 0 {
		t.Fatalf("negative sample not clamped: count=%d max=%d", g.Count(), g.Quantile(1))
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := util.NewRNG(uint64(w + 1))
			for i := 0; i < per; i++ {
				h.Observe(int64(rng.Intn(1 << 20)))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count %d, want %d", h.Count(), workers*per)
	}
}
