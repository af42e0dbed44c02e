// Package stats provides the small statistics toolkit the experiment
// harness uses: streaming accumulators for latency samples and helpers for
// summarizing simulation measurement windows.
package stats

import (
	"fmt"
	"math"
	"sort"
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
	sorted bool
}

// Reset empties the sample, keeping the storage of its values.
func (s *Sample) Reset() {
	*s = Sample{values: s.values[:0]}
}

// Add records one sample.
func (s *Sample) Add(v float64) {
	s.Accumulator.Add(v)
	s.values = append(s.values, v)
	s.sorted = false
}

// Percentile returns the p-th percentile (0 <= p <= 100) by nearest-rank,
// or 0 with no samples.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[len(s.values)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.values))))
	if rank < 1 {
		rank = 1
	}
	return s.values[rank-1]
}
