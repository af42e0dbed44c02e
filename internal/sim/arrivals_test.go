package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// scanArrivals is message generation as measure ran it before arrivals were
// kept on a timer wheel: on every cycle at which anything is due, a scan over
// all nodes in ascending order, each firing every arrival it has at or before
// the cycle, with the minimum of the next arrival times taken along the way.
// It is the wheel's oracle for the order of the RNG draws.
type scanArrivals struct {
	rng     *rand.Rand
	meanGap float64
	next    []float64
	nextDue int64
}

func newScanArrivals(rng *rand.Rand, nodes int, meanGap float64) *scanArrivals {
	s := &scanArrivals{rng: rng, meanGap: meanGap, next: make([]float64, nodes)}
	for i := range s.next {
		s.next[i] = rng.ExpFloat64() * meanGap
	}
	return s
}

func (s *scanArrivals) generate(cycle int64, fire func(node topology.NodeID)) int64 {
	if cycle < s.nextDue {
		return s.nextDue
	}
	earliest := math.Inf(1)
	for node := range s.next {
		for s.next[node] <= float64(cycle) {
			s.next[node] += s.rng.ExpFloat64() * s.meanGap
			fire(topology.NodeID(node))
		}
		if s.next[node] < earliest {
			earliest = s.next[node]
		}
	}
	s.nextDue = math.MaxInt64
	if !math.IsInf(earliest, 1) {
		s.nextDue = int64(math.Ceil(earliest))
	}
	return s.nextDue
}

// TestArrivalsMatchScan drives the arrival wheel and the all-nodes scan it
// replaced from identically seeded RNGs through the clock schedule measure
// produces — generate before every step, a step ending on the next cycle or,
// leaping, anywhere up to the cycle generate returned — and demands the same
// messages (node, destination, length) on the same cycles, the same injection
// horizon after every call, and RNGs left in the same state. Uniform traffic
// draws its destinations from the shared RNG, so one draw out of order would
// change every message after it; transpose has fixed points, whose arrivals
// draw a gap and nothing else. The dense cases put several arrivals of one
// node into one cycle; the sparse ones leap over hundreds of cycles, and at
// rate 0.01 the mean gap is ten times the wheel's span, so most arrivals wait
// in its overflow heap.
func TestArrivalsMatchScan(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	lengths := []int{10, 200}
	for _, tc := range []struct {
		name    string
		pattern traffic.Pattern
		meanGap float64
		cycles  int64
	}{
		{"uniform-dense", traffic.Uniform{Topo: mesh}, 0.8, 3000},
		{"transpose-dense", traffic.NewMeshTranspose(mesh), 1.5, 3000},
		{"uniform-paper-rate", traffic.Uniform{Topo: mesh}, 105 / 0.05, 200000},
		{"uniform-rate-0.01", traffic.Uniform{Topo: mesh}, 105 / 0.01, 1000000},
		{"zero-rate", traffic.Uniform{Topo: mesh}, math.Inf(1), 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type run struct {
				rng      *rand.Rand
				generate func(cycle int64, fire func(topology.NodeID)) int64
				log      []string
				perCycle map[string]int
			}
			mk := func(wheel bool) *run {
				r := &run{rng: rand.New(rand.NewSource(99)), perCycle: make(map[string]int)}
				if wheel {
					r.generate = newArrivals(r.rng, mesh.Nodes(), tc.meanGap).generate
				} else {
					r.generate = newScanArrivals(r.rng, mesh.Nodes(), tc.meanGap).generate
				}
				return r
			}
			got, want := mk(true), mk(false)
			clock := rand.New(rand.NewSource(5))
			fixed, doubles := 0, 0
			for cycle := int64(0); cycle < tc.cycles; {
				var due [2]int64
				for i, r := range []*run{got, want} {
					due[i] = r.generate(cycle, func(node topology.NodeID) {
						// measure's fire, recording instead of enqueueing.
						key := fmt.Sprintf("%d:%d", cycle, node)
						if r.perCycle[key]++; r.perCycle[key] == 2 {
							doubles++
						}
						dst := tc.pattern.Dest(node, r.rng)
						if dst == node {
							fixed++
							r.log = append(r.log, key+" fixed")
							return
						}
						r.log = append(r.log, fmt.Sprintf("%s>%d/%d", key, dst, lengths[r.rng.Intn(len(lengths))]))
					})
				}
				if due[0] != due[1] || due[0] <= cycle {
					t.Fatalf("cycle %d: the wheel says the next arrival is due in cycle %d, the scan says %d", cycle, due[0], due[1])
				}
				if len(got.log) != len(want.log) || len(got.log) > 0 && got.log[len(got.log)-1] != want.log[len(want.log)-1] {
					t.Fatalf("cycle %d: the wheel has fired %d arrivals, the last %q; the scan %d, the last %q",
						cycle, len(got.log), last(got.log), len(want.log), last(want.log))
				}
				// A busy network steps one cycle; an idle one leaps, no
				// further than the horizon.
				if next := min(due[0], tc.cycles); clock.Intn(3) == 0 && next > cycle+1 {
					cycle += 1 + clock.Int63n(next-cycle)
				} else {
					cycle++
				}
			}
			for i := range want.log {
				if got.log[i] != want.log[i] {
					t.Fatalf("arrival %d: the wheel fired %q, the scan %q", i, got.log[i], want.log[i])
				}
			}
			if a, b := got.rng.Int63(), want.rng.Int63(); a != b {
				t.Fatalf("the RNGs ended in different states (next draws %d and %d)", a, b)
			}
			switch tc.name {
			case "zero-rate":
				if len(want.log) != 0 {
					t.Fatalf("a zero-rate run fired %d arrivals", len(want.log))
				}
			case "transpose-dense":
				if fixed == 0 {
					t.Fatal("no fixed-point source fired")
				}
				fallthrough
			case "uniform-dense":
				if doubles < 100 {
					t.Fatalf("only %d cycles gave one node two arrivals; the case no longer covers them", doubles/2)
				}
			default:
				if len(want.log) < 50 {
					t.Fatalf("only %d arrivals", len(want.log))
				}
			}
		})
	}
}

func last(log []string) string {
	if len(log) == 0 {
		return ""
	}
	return log[len(log)-1]
}
