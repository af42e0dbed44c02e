// Package stats provides the small statistics toolkit the experiment
// harness uses: streaming accumulators for latency samples and helpers for
// summarizing simulation measurement windows.
package stats

import (
	"fmt"
	"math"
)

// Accumulator tracks count, mean, variance (Welford), minimum and maximum
// of a stream of samples. The zero value is ready to use.
type Accumulator struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one sample.
func (a *Accumulator) Add(v float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = v, v
	} else {
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
	}
	d := v - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (v - a.mean)
}

// Count reports the number of samples.
func (a *Accumulator) Count() int64 { return a.n }

// Mean reports the sample mean (0 with no samples).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance reports the unbiased sample variance.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev reports the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min reports the smallest sample (0 with no samples).
func (a *Accumulator) Min() float64 {
	return a.min
}

// Max reports the largest sample (0 with no samples).
func (a *Accumulator) Max() float64 {
	return a.max
}

// String summarizes the accumulator.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f", a.n, a.Mean(), a.StdDev(), a.min, a.max)
}

// Sample is an Accumulator that also retains every value so that
// percentiles can be computed. Use it when the sample count is modest.
type Sample struct {
	Accumulator
	values []float64
}

// Reset empties the sample, keeping the storage of its values.
func (s *Sample) Reset() {
	*s = Sample{values: s.values[:0]}
}

// Add records one sample.
func (s *Sample) Add(v float64) {
	s.Accumulator.Add(v)
	s.values = append(s.values, v)
}

// Percentile returns the p-th percentile (0 <= p <= 100) by nearest-rank,
// or 0 with no samples: the value at rank ceil(p/100 * n), at least 1, of
// the samples in the ascending order sort.Float64s gives them. It selects
// that value (see nth) rather than sorting, in expected time linear in the
// sample count, and leaves the samples reordered.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	k := n - 1
	if p < 100 {
		k = max(int(math.Ceil(p/100*float64(n))), 1) - 1
	}
	return nth(s.values, k)
}

// less is the order of sort.Float64s: ascending, NaNs first.
func less(a, b float64) bool { return a < b || (math.IsNaN(a) && !math.IsNaN(b)) }

// nth reorders v so that v[k] holds the value sort.Float64s would put at
// index k, and returns it: quickselect with a median-of-three pivot and a
// three-way partition, so that the many ties of a latency sample (whole
// cycles) cost no more than distinct values.
func nth(v []float64, k int) float64 {
	lo, hi := 0, len(v)-1
	for lo < hi {
		pivot := median3(v[lo], v[lo+(hi-lo)/2], v[hi])
		// Partition v[lo:hi+1] into v[lo:lt] below the pivot, v[lt:gt+1]
		// equal to it and v[gt+1:hi+1] above it.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch {
			case less(v[i], pivot):
				v[lt], v[i] = v[i], v[lt]
				lt++
				i++
			case less(pivot, v[i]):
				v[i], v[gt] = v[gt], v[i]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return v[k]
		}
	}
	return v[k]
}

// median3 returns the middle one of a, b and c in the order of less.
func median3(a, b, c float64) float64 {
	if less(b, a) {
		a, b = b, a
	}
	switch {
	case !less(c, b):
		return b
	case less(c, a):
		return a
	}
	return c
}
