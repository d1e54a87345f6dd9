package main

import (
	"math"
	"sort"
)

// percentileLadder is the set of percentiles a tail is reported at. The
// tail of a sample is the highest rung that still has at least
// minBeyond samples above it, so a p99 is never claimed from a few
// hundred samples.
var percentileLadder = []float64{50, 90, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// miss marks a sample that never completed (an undetected episode, a
// failed operation). Misses sort above every real sample, so they count
// against every latency percentile instead of vanishing from it.
var miss = math.Inf(1)

// sample is a set of latencies (or any values) with misses recorded as
// +Inf.
type sample []float64

// percentile returns the p-th percentile (nearest rank) of s. A result
// of +Inf means the percentile falls among the misses.
func (s sample) percentile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := append(sample(nil), s...)
	sort.Float64s(v)
	rank := rankOf(p, len(v))
	if rank < 1 {
		rank = 1
	}
	if rank > len(v) {
		rank = len(v)
	}
	return v[rank-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples. The small tolerance keeps decimal percentiles such as 99.9
// from rounding up a rank.
func rankOf(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyond samples beyond it; 0 when even the median lacks them.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if n-rankOf(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// misses counts the +Inf entries.
func (s sample) misses() int {
	n := 0
	for _, v := range s {
		if math.IsInf(v, 1) {
			n++
		}
	}
	return n
}

// median of plain values (no misses expected).
func median(v []float64) float64 {
	return sample(v).percentile(50)
}
