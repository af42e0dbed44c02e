package routing

import (
	"turnmodel/internal/topology"
)

// DimensionOrder is the nonadaptive dimension-ordered algorithm: a packet
// corrects dimension 0 first, then dimension 1, and so on. On a 2D mesh it
// is the xy algorithm; on a hypercube it is e-cube. It prohibits every
// turn from a higher dimension to a lower one — half of all turns, twice
// the minimum the turn model needs — which is why it admits no
// adaptiveness.
func DimensionOrder(topo topology.Topology) Algorithm {
	name := "dimension-order"
	switch topo.(type) {
	case *topology.Hypercube:
		name = "e-cube"
	default:
		if topo.Dims() == 2 {
			name = "xy"
		}
	}
	phases := make([][]topology.Direction, topo.Dims())
	for i := range phases {
		phases[i] = []topology.Direction{topology.Dir(i, false), topology.Dir(i, true)}
	}
	return newPhased(topo, name, phases...)
}

// XY is dimension-order routing on a 2D mesh (Section 1).
func XY(m *topology.Mesh) Algorithm { return DimensionOrder(m) }

// ECube is dimension-order routing on a hypercube (Section 1).
func ECube(h *topology.Hypercube) Algorithm { return DimensionOrder(h) }

// WestFirst is the Section 3.1 algorithm for 2D meshes: route a packet
// first west, if necessary, and then adaptively south, east, and north.
// The prohibited turns are the two turns to the west (Figure 5a).
func WestFirst(m *topology.Mesh) Algorithm {
	mustBe2D(m, "west-first")
	return newPhased(m, "west-first",
		[]topology.Direction{topology.West},
		[]topology.Direction{topology.East, topology.South, topology.North},
	)
}

// NorthLast is the Section 3.2 algorithm for 2D meshes: route a packet
// first adaptively west, south, and east, and then north. The prohibited
// turns are the two turns made when travelling north (Figure 9a).
func NorthLast(m *topology.Mesh) Algorithm {
	mustBe2D(m, "north-last")
	return newPhased(m, "north-last",
		[]topology.Direction{topology.West, topology.South, topology.East},
		[]topology.Direction{topology.North},
	)
}

// NegativeFirst is the Section 3.3 / Section 4.1 algorithm for
// n-dimensional meshes: route a packet first adaptively in the negative
// directions, then adaptively in the positive directions. The prohibited
// turns are those from a positive direction to a negative direction —
// exactly n(n-1) of them, the Theorem 1 minimum.
//
// m is a mesh or a hypercube, the binary n-cube.
func NegativeFirst(m topology.Topology) Algorithm {
	return newPhased(m, "negative-first", negatives(m.Dims()), positives(m.Dims()))
}

// ABONF is the all-but-one-negative-first algorithm of Section 4.1, the
// n-dimensional analog of west-first: route first adaptively in the
// negative directions of all dimensions but the last, then adaptively in
// the other directions. m is a mesh or a hypercube.
func ABONF(m topology.Topology) Algorithm {
	n := m.Dims()
	var phase1, phase2 []topology.Direction
	for i := 0; i < n-1; i++ {
		phase1 = append(phase1, topology.Dir(i, false))
	}
	phase2 = append(phase2, topology.Dir(n-1, false))
	phase2 = append(phase2, positives(n)...)
	return newPhased(m, "abonf", phase1, phase2)
}

// ABOPL is the all-but-one-positive-last algorithm of Section 4.1, the
// n-dimensional analog of north-last: route first adaptively in the
// negative directions and the positive direction of dimension 0, then
// adaptively in the remaining positive directions. m is a mesh or a
// hypercube.
func ABOPL(m topology.Topology) Algorithm {
	n := m.Dims()
	phase1 := append(negatives(n), topology.Dir(0, true))
	var phase2 []topology.Direction
	for i := 1; i < n; i++ {
		phase2 = append(phase2, topology.Dir(i, true))
	}
	return newPhased(m, "abopl", phase1, phase2)
}

// PCube is the Section 5 p-cube algorithm for hypercubes, the hypercube
// special case of negative-first: phase one clears the dimensions where
// the current address has a 1 and the destination a 0; phase two sets the
// dimensions where the current address has a 0 and the destination a 1.
func PCube(h *topology.Hypercube) Algorithm {
	p := newPhased(h, "p-cube", negatives(h.Dims()), positives(h.Dims()))
	return p
}

// FullyAdaptive is the minimal fully adaptive relation: every productive
// direction is always permitted. Without extra channels this is NOT
// deadlock free (its channel dependency graph is cyclic); it exists as the
// cautionary baseline for tests and the deadlock demonstration.
func FullyAdaptive(topo topology.Topology) Algorithm {
	ma, _ := topo.(topology.MinimalAppender)
	return fullyAdaptive{topo, ma}
}

type fullyAdaptive struct {
	topo topology.Topology
	ma   topology.MinimalAppender // nil when the topology cannot append
}

func (f fullyAdaptive) Name() string                { return "fully-adaptive" }
func (f fullyAdaptive) Topology() topology.Topology { return f.topo }

func (f fullyAdaptive) Candidates(current, dest topology.NodeID, _ topology.Direction, _ bool) []topology.Direction {
	return f.topo.MinimalDirections(current, dest)
}

// AppendCandidates implements CandidateAppender.
func (f fullyAdaptive) AppendCandidates(dst []topology.Direction, current, dest topology.NodeID, _ topology.Direction, _ bool) []topology.Direction {
	if f.ma != nil {
		return f.ma.AppendMinimalDirections(dst, current, dest)
	}
	return append(dst, f.topo.MinimalDirections(current, dest)...)
}

func mustBe2D(m *topology.Mesh, name string) {
	if m.Dims() != 2 {
		panic("routing: " + name + " requires a 2D mesh")
	}
}
