package main

import (
	"math"
	"sort"
)

// percentile returns the exact nearest-rank p-th percentile (p in
// (0,100]) of sorted: the smallest sample with at least p% of the samples
// at or below it. Empty input yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n >= 1
// samples.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p/100*float64(n))), 1), n)
}

// beyond reports how many samples lie strictly after the p-th percentile's
// rank — the "at least ten samples beyond it" rule for tail percentiles.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailPercentile returns the highest of the candidate percentiles
// (99, 95, 90, 75) that has at least minBeyond samples beyond it, and
// which one it was; with too few samples for any it falls back to the
// median.
func tailPercentile(sorted []float64, minBeyond int) (value, p float64) {
	for _, c := range []float64{99, 95, 90, 75} {
		if beyond(len(sorted), c) >= minBeyond {
			return percentile(sorted, c), c
		}
	}
	return median(sorted), 50
}

// median returns the median of sorted (mean of the two middle samples for
// an even count). Empty input yields 0.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// mean returns the arithmetic mean of xs, 0 when empty.
func mean(xs []float64) float64 { return share(sum(xs), float64(len(xs))) }

// share returns part/whole, 0 when whole is 0.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// medianOf returns the median of xs in any order.
func medianOf(xs []float64) float64 { return median(sortedCopy(xs)) }

// ageSlope is the median of the last fifth of samples (in arrival order)
// over the median of the first fifth: 1 means per-event cost did not
// depend on how long the deployment had been running. With fewer than
// ten samples the windows are the first and the last sample; fewer than
// two samples, or a zero first window, yield 0.
func ageSlope(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	k := max(1, len(samples)/5)
	first := medianOf(samples[:k])
	last := medianOf(samples[len(samples)-k:])
	if first == 0 {
		return 0
	}
	return last / first
}

// nsToUs converts int64 nanosecond samples to float64 microseconds.
func nsToUs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}
