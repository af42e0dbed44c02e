package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile
// for the benchmark to report it.
const minBeyond = 10

// percentile returns the p-th percentile (nearest rank) of the values and
// how many samples lie strictly beyond that rank. It sorts a copy.
func percentile(values []float64, p float64) (v float64, beyond int) {
	if len(values) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// tailPercentile is the highest of the conventional percentiles that still
// has minBeyond of n samples beyond it, or 0 when even the median has not.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 80, 90, 95, 99, 99.9} {
		if rank := int(math.Ceil(p / 100 * float64(n))); n-rank >= minBeyond {
			best = p
		}
	}
	return best
}

func median(values []float64) float64 {
	v, _ := percentile(values, 50)
	return v
}

func sum(values []float64) float64 {
	t := 0.0
	for _, v := range values {
		t += v
	}
	return t
}

// quartileSpread is the distance between the first and third quartile of
// the values as a share of their median, with the quartiles computed as
// Python's statistics.quantiles(values, n=4) computes them (exclusive
// method) — the figure the benchmark's acceptance is judged by.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	mid := q(2)
	if mid == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(mid)
}
