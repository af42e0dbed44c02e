package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.Count() != 0 || a.Mean() != 0 || a.Variance() != 0 || a.Min() != 0 || a.Max() != 0 {
		t.Error("zero accumulator not zeroed")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(v)
	}
	if a.Count() != 8 {
		t.Errorf("Count = %d", a.Count())
	}
	if a.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic dataset is 4; sample variance
	// is 32/7.
	if math.Abs(a.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", a.Variance(), 32.0/7.0)
	}
	if math.Abs(a.StdDev()-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Errorf("StdDev = %v", a.StdDev())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", a.Min(), a.Max())
	}
	if a.String() == "" {
		t.Error("empty String()")
	}
}

func TestAccumulatorSingleSample(t *testing.T) {
	var a Accumulator
	a.Add(3)
	if a.Mean() != 3 || a.Variance() != 0 || a.Min() != 3 || a.Max() != 3 {
		t.Errorf("single sample stats wrong: %v", a.String())
	}
}

func TestAccumulatorMatchesNaiveMean(t *testing.T) {
	err := quick.Check(func(vals []float64) bool {
		var a Accumulator
		sum := 0.0
		n := 0
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue
			}
			a.Add(v)
			sum += v
			n++
		}
		if n == 0 {
			return a.Count() == 0
		}
		naive := sum / float64(n)
		scale := math.Max(1, math.Abs(naive))
		return math.Abs(a.Mean()-naive)/scale < 1e-9
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 {
		t.Error("empty sample percentile not 0")
	}
	for i := 100; i >= 1; i-- { // reverse order: Percentile must order them
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 1}, {50, 50}, {95, 95}, {99, 99}, {100, 100}, {150, 100},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if s.Mean() != 50.5 {
		t.Errorf("Mean = %v", s.Mean())
	}
	// Adding after a percentile query must keep working.
	s.Add(1000)
	if got := s.Percentile(100); got != 1000 {
		t.Errorf("Percentile(100) after Add = %v", got)
	}
}

// TestSampleReset: a reset sample is an empty one — count, mean, extremes
// and percentiles start over — whatever it held, reordered or not.
func TestSampleReset(t *testing.T) {
	var s Sample
	for _, v := range []float64{9, 3, 7} {
		s.Add(v)
	}
	s.Percentile(50) // leaves the values reordered
	s.Reset()
	if s.Count() != 0 || s.Mean() != 0 || s.Percentile(50) != 0 {
		t.Fatalf("reset sample: count %d mean %v p50 %v, want all 0", s.Count(), s.Mean(), s.Percentile(50))
	}
	for _, v := range []float64{5, 1} {
		s.Add(v)
	}
	if s.Count() != 2 || s.Mean() != 3 || s.Min() != 1 || s.Max() != 5 || s.Percentile(100) != 5 {
		t.Errorf("after Reset: %v p100 %v, want n=2 mean 3 min 1 max 5", s.String(), s.Percentile(100))
	}
}

// TestSamplePercentileSelectsTheSortedRank: Percentile selects in place
// instead of sorting, and must return exactly what the sort-based definition
// returns — the value at index ceil(p/100 * n) - 1 (at least 0) of the
// samples sorted by sort.Float64s — on samples full of ties, for every
// percentile asked, whatever earlier queries left the values in, and after
// Adds between the queries.
func TestSamplePercentileSelectsTheSortedRank(t *testing.T) {
	ref := func(vals []float64, p float64) float64 {
		sorted := slices.Clone(vals)
		sort.Float64s(sorted)
		switch {
		case p <= 0:
			return sorted[0]
		case p >= 100:
			return sorted[len(sorted)-1]
		}
		return sorted[max(int(math.Ceil(p/100*float64(len(sorted)))), 1)-1]
	}
	rng := rand.New(rand.NewSource(7))
	ps := []float64{0, 1, 50, 95, 99, 100}
	for trial := 0; trial < 300; trial++ {
		var s Sample
		var vals []float64
		// A few distinct values for some trials (ties everywhere), many
		// for others; sizes from 1 up.
		distinct := 1 + rng.Intn(1+rng.Intn(400))
		add := func(k int) {
			for i := 0; i < k; i++ {
				v := float64(rng.Intn(distinct)) * 0.25
				s.Add(v)
				vals = append(vals, v)
			}
		}
		add(1 + rng.Intn(300))
		for round := 0; round < 3; round++ {
			for _, i := range rng.Perm(len(ps)) {
				p := ps[i]
				if got, want := s.Percentile(p), ref(vals, p); got != want {
					t.Fatalf("trial %d, %d samples, %d distinct: Percentile(%v) = %v, sorted rank gives %v",
						trial, len(vals), distinct, p, got, want)
				}
			}
			add(rng.Intn(50))
		}
	}
}
