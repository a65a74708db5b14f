package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported tail
// percentile: a p99 needs at least 1000 samples, so that the value rests on
// ten observations and not on one outlier.
const minBeyond = 10

// samplesFor returns the number of samples a run needs before the q
// quantile has minBeyond samples above it.
func samplesFor(q float64) int {
	return int(math.Ceil(minBeyond / (1 - q)))
}

// tailPercentile returns the q quantile of samples (nearest rank) and
// reports an error when fewer than minBeyond samples lie strictly above its
// rank. The samples are sorted in place.
func tailPercentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	rank := nearestRank(n, q)
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, want >= %d (need %d samples)",
			q*100, n, beyond, minBeyond, samplesFor(q))
	}
	sort.Float64s(samples)
	return samples[rank-1], nil
}

// nearestRank is the 1-based rank of the q quantile among n samples.
func nearestRank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n))), 1), n)
}

// percentile returns the q quantile of xs by nearest rank without the
// tail rule (for write latencies and summaries), or 0 when xs is empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), q)-1]
}

// median returns the median of xs (mean of the middle pair for even
// counts), leaving xs unmodified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles with the same method as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so the
// figures printed here match the acceptance check on the same values.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
