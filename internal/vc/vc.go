// Package vc applies the turn model to networks with extra virtual
// channels — the direction Section 4.2 and the companion paper [18] point
// to. Splitting a physical channel into virtual channels multiplies the
// vertices of the channel dependency graph, which makes two things
// possible that the base model cannot do:
//
//   - minimal deadlock-free routing on k-ary n-cubes (the Dally–Seitz
//     dateline scheme, two virtual channels per physical channel), and
//   - minimal FULLY adaptive routing on 2D meshes (the double-y scheme:
//     two virtual channels on the y links only).
//
// The package mirrors internal/routing at the virtual-channel level: an
// Algorithm proposes (direction, virtual channel) outputs, and FromRouting
// builds — with internal/turnmodel's one dependency-graph construction —
// the virtual-channel dependency graph whose acyclicity certifies deadlock
// freedom.
package vc

import (
	"fmt"

	"turnmodel/internal/topology"
	"turnmodel/internal/turnmodel"
)

// Out names one output virtual channel at a router: the physical direction
// and the virtual channel index on it.
type Out struct {
	Dir topology.Direction
	VC  int
}

func (o Out) String() string { return fmt.Sprintf("%v/vc%d", o.Dir, o.VC) }

// Algorithm is a virtual-channel routing algorithm bound to a topology.
type Algorithm interface {
	// Name identifies the algorithm.
	Name() string
	// Topology returns the bound network.
	Topology() topology.Topology
	// VCs reports how many virtual channels each physical channel in
	// the given direction carries (uniform across the network).
	VCs(dir topology.Direction) int
	// Candidates lists the permitted output virtual channels for a
	// packet at current destined for dest that arrived on (inDir, inVC)
	// (topology.Invalid at injection). Ordered by increasing dimension,
	// then virtual channel.
	Candidates(current, dest topology.NodeID, inDir topology.Direction, inVC int) []Out
}

// CandidateAppender is the optional allocation-free form of Candidates:
// AppendCandidates appends the same outputs in the same order Candidates
// returns, reusing dst's storage. dirScratch is caller-owned scratch for
// algorithms that lift a physical-channel routing.Algorithm (its contents
// are meaningless afterwards); the possibly-grown scratch is returned so
// the caller can reuse its capacity. Callers must fall back to Candidates
// when the assertion fails.
type CandidateAppender interface {
	AppendCandidates(dst []Out, dirScratch []topology.Direction, current, dest topology.NodeID, inDir topology.Direction, inVC int) ([]Out, []topology.Direction)
}

// MaxVCs reports the largest per-direction virtual channel count of the
// algorithm.
func MaxVCs(a Algorithm) int {
	max := 1
	for _, d := range topology.Directions(a.Topology().Dims()) {
		if v := a.VCs(d); v > max {
			max = v
		}
	}
	return max
}

// Channel is one virtual channel instance of the network, a vertex of the
// dependency graph.
type Channel = turnmodel.VCChannel

// Relation adapts an Algorithm to the turnmodel.VCCandidateFunc used for
// dependency graph construction.
func Relation(a Algorithm) turnmodel.VCCandidateFunc {
	return func(current, dest topology.NodeID, inDir topology.Direction, inVC int, emit func(topology.Direction, int)) {
		for _, o := range a.Candidates(current, dest, inDir, inVC) {
			emit(o.Dir, o.VC)
		}
	}
}

// FromRouting builds the exact virtual-channel dependency graph of an
// Algorithm on its topology; as with the physical-channel graph,
// acyclicity is the Dally–Seitz criterion for deadlock freedom, and
// FindVCCycle names an offending cycle.
func FromRouting(a Algorithm) *turnmodel.CDG {
	return turnmodel.FromRoutingVC(a.Topology(), a.VCs, Relation(a), nil)
}
