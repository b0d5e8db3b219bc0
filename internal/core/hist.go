package core

import (
	"math/bits"
	"time"
)

// histBuckets is the fixed bucket count of LatencyHist. Bucket i holds
// observations whose nanosecond value has bit length i, i.e. the range
// [2^(i-1), 2^i); bucket 0 is zero-duration, the last bucket absorbs
// everything from ~9 hours up. 46 buckets cover every latency a decision
// path can plausibly take.
const histBuckets = 46

// LatencyHist is a fixed-bucket log-scale latency histogram: a plain
// array of counters with power-of-two bucket bounds, no allocations, no
// dependencies, cheap enough to live on every node's Stats and be bumped
// on the message-delivery hot path. Quantiles are resolved to a bucket's
// upper bound, so a reported p99 is exact to within 2x — the right
// fidelity for "did the decision land inside its delivery window",
// which is a question about orders of magnitude, not microseconds.
//
// The zero value is ready to use. LatencyHist observes wall-clock time
// only; it never feeds world digests or exploration, so enabling the
// instrumentation cannot perturb virtual executions or goldens.
type LatencyHist struct {
	Buckets [histBuckets]uint64
	Count   uint64
	SumNs   uint64
	MaxNs   uint64
}

// Observe records one latency sample.
func (h *LatencyHist) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	i := bits.Len64(ns)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.Buckets[i]++
	h.Count++
	h.SumNs += ns
	if ns > h.MaxNs {
		h.MaxNs = ns
	}
}

// N returns the number of recorded samples.
func (h *LatencyHist) N() uint64 { return h.Count }

// Max returns the largest recorded sample.
func (h *LatencyHist) Max() time.Duration { return time.Duration(h.MaxNs) }

// Mean returns the average recorded sample.
func (h *LatencyHist) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumNs / h.Count)
}

// Percentile returns the upper bound of the bucket holding the p-th
// percentile sample (p in [0, 100]). The true sample lies within a
// factor of two below the returned value; Max caps the last bucket so
// p100 is exact.
func (h *LatencyHist) Percentile(p float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := uint64(p / 100 * float64(h.Count))
	if rank >= h.Count {
		rank = h.Count - 1
	}
	var seen uint64
	for i, c := range h.Buckets {
		seen += c
		if seen > rank {
			bound := upperBoundNs(i)
			if bound > h.MaxNs {
				bound = h.MaxNs
			}
			return time.Duration(bound)
		}
	}
	return time.Duration(h.MaxNs)
}

func upperBoundNs(bucket int) uint64 {
	if bucket == 0 {
		return 0
	}
	if bucket >= 64 {
		return 1<<63 - 1
	}
	return 1<<uint(bucket) - 1
}

// add merges o into h (cluster-wide Stats aggregation).
func (h *LatencyHist) add(o *LatencyHist) {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.Count += o.Count
	h.SumNs += o.SumNs
	if o.MaxNs > h.MaxNs {
		h.MaxNs = o.MaxNs
	}
}

// Delta returns the histogram of samples recorded since prev was
// snapshotted from the same (monotonically growing) histogram — the
// measured-phase view the benchmark needs after discarding warmup.
// MaxNs cannot be un-merged, so the delta keeps the lifetime maximum;
// treat the result's Max as an upper bound. Counters clamp at zero
// instead of wrapping, so a mismatched snapshot (prev not taken from h,
// or taken later) yields an empty-ish delta rather than a histogram with
// ~2^64 phantom samples.
func (h LatencyHist) Delta(prev LatencyHist) LatencyHist {
	var d LatencyHist
	for i := range h.Buckets {
		d.Buckets[i] = clampedSub(h.Buckets[i], prev.Buckets[i])
	}
	d.Count = clampedSub(h.Count, prev.Count)
	d.SumNs = clampedSub(h.SumNs, prev.SumNs)
	d.MaxNs = h.MaxNs
	return d
}

// clampedSub returns a-b, or 0 when b exceeds a.
func clampedSub(a, b uint64) uint64 {
	if b > a {
		return 0
	}
	return a - b
}
