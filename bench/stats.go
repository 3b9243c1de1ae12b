package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the exact nearest-rank percentile of raw samples:
// the smallest sample with at least q of the samples at or below it. No
// bucketing, so a 1% shift in the samples is a 1% shift in the result
// (trace.Histogram's buckets are 6% apart and would hide it).
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	// The epsilon keeps q*n that is a whole number in exact arithmetic
	// (0.7 * 10) from rounding up to the next rank in floating point.
	rank := int(math.Ceil(q*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartileSpread is the acceptance statistic of the benchmark contract:
// the distance between the first and third quartile, as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// as a share of the median. Zero for fewer than two values.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	quart := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quart(3) - quart(1)) / math.Abs(med)
}

// segmentSpreadPct splits time-ordered samples into three equal thirds and
// returns (max − min) ÷ median of the thirds' medians, in percent: drift
// inside one timed phase (heap growth, thermal, a noisy neighbour).
func segmentSpreadPct(samples []float64) float64 {
	if len(samples) < 3 {
		return 0
	}
	third := len(samples) / 3
	meds := []float64{
		median(samples[:third]),
		median(samples[third : 2*third]),
		median(samples[2*third:]),
	}
	mid := median(meds)
	if mid == 0 {
		return 0
	}
	sort.Float64s(meds)
	return 100 * (meds[2] - meds[0]) / mid
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
