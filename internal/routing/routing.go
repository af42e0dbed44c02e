// Package routing implements the routing algorithms studied in the paper:
// the nonadaptive dimension-order algorithms (xy for meshes, e-cube for
// hypercubes) and the partially adaptive algorithms the turn model derives
// (west-first, north-last, negative-first, all-but-one-negative-first,
// all-but-one-positive-last, p-cube), plus the Section 4.2 extensions to
// k-ary n-cubes and a deliberately unsafe fully adaptive baseline used to
// demonstrate deadlock.
//
// All algorithms used in the simulations are minimal, as in Section 6 of
// the paper: a router only ever forwards a packet along channels that lie
// on some shortest path that the algorithm permits.
package routing

import (
	"fmt"

	"turnmodel/internal/topology"
	"turnmodel/internal/turnmodel"
)

// Algorithm decides which output channels a header flit may take. An
// Algorithm is bound to a topology at construction time and must be
// stateless and safe for concurrent use.
type Algorithm interface {
	// Name is a short identifier such as "west-first".
	Name() string
	// Topology returns the network the algorithm is bound to.
	Topology() topology.Topology
	// Candidates lists the permitted output directions for a packet at
	// node current destined for dest. The packet arrived travelling in
	// direction in (topology.Invalid when it sits at the injection
	// port); inWrap reports whether it arrived over a torus wraparound
	// channel. The result is ordered by increasing dimension, which is
	// the order the paper's "xy" output selection policy prefers. An
	// empty result means current == dest.
	Candidates(current, dest topology.NodeID, in topology.Direction, inWrap bool) []topology.Direction
}

// CandidateAppender is the optional allocation-free form of Candidates.
// The contract is exact: AppendCandidates(dst, args...) appends the same
// directions in the same order Candidates(args...) returns, reusing dst's
// storage (typically per-worm scratch owned by a simulator). Algorithms
// whose candidate computation would otherwise allocate per hop implement
// it; callers must fall back to Candidates when the assertion fails.
type CandidateAppender interface {
	AppendCandidates(dst []topology.Direction, current, dest topology.NodeID, in topology.Direction, inWrap bool) []topology.Direction
}

// Relation adapts an Algorithm to the turnmodel.CandidateFunc used for
// channel dependency graph construction and numbering validation.
func Relation(a Algorithm) turnmodel.CandidateFunc {
	topo := a.Topology()
	return func(current, dest topology.NodeID, in topology.Direction) []topology.Direction {
		return a.Candidates(current, dest, in, ArrivalWrap(topo, current, in))
	}
}

// ArrivalWrap recovers the wrap flag of the channel a packet arrived at
// current on, travelling in direction in: it came from the neighbor in the
// opposite direction, over that neighbor's channel in direction in. At the
// injection port (topology.Invalid) it is false.
func ArrivalWrap(topo topology.Topology, current topology.NodeID, in topology.Direction) bool {
	if in == topology.Invalid {
		return false
	}
	from, ok := topo.Neighbor(current, in.Opposite())
	return ok && topo.Wraparound(from, in)
}

// Phased builds a custom phase-ordered routing discipline: directions are
// grouped into ordered phases and turns from a later phase back to an
// earlier one are prohibited, so a minimal route exhausts the productive
// directions of each phase before moving on, routing fully adaptively
// within a phase. Every named turn-model algorithm in this package is an
// instance; exporting the constructor lets callers explore the whole
// design space the model opens up (any partition with at least two phases
// is deadlock free on a mesh — a cycle would need both signs of two axes
// inside a single phase).
//
// Every direction of the topology must appear in exactly one phase.
func Phased(topo topology.Topology, name string, phases ...[]topology.Direction) Algorithm {
	return newPhased(topo, name, phases...)
}

// phased is the shared engine behind every turn-model algorithm in the
// paper. Directions are grouped into ordered phases; turns from a later
// phase back to an earlier phase are prohibited, so a minimal route must
// exhaust the productive directions of each phase before moving to the
// next. Within a phase, routing is fully adaptive among the productive
// directions.
type phased struct {
	topo    topology.Topology
	name    string
	phaseOf []int // indexed by Direction
	// ma caches the topology's MinimalAppender (nil when unsupported) so
	// AppendCandidates skips the type assertion per hop.
	ma topology.MinimalAppender
}

func newPhased(topo topology.Topology, name string, phases ...[]topology.Direction) *phased {
	p := &phased{topo: topo, name: name, phaseOf: make([]int, 2*topo.Dims())}
	p.ma, _ = topo.(topology.MinimalAppender)
	for i := range p.phaseOf {
		p.phaseOf[i] = -1
	}
	for idx, ph := range phases {
		for _, d := range ph {
			if !d.Valid(topo.Dims()) {
				panic(fmt.Sprintf("routing: invalid direction %v for %s", d, topo.Name()))
			}
			if p.phaseOf[d] != -1 {
				panic(fmt.Sprintf("routing: direction %v in two phases", d))
			}
			p.phaseOf[d] = idx
		}
	}
	for d, ph := range p.phaseOf {
		if ph == -1 {
			panic(fmt.Sprintf("routing: direction %v not assigned a phase", topology.Direction(d)))
		}
	}
	return p
}

func (p *phased) Name() string                { return p.name }
func (p *phased) Topology() topology.Topology { return p.topo }

func (p *phased) Candidates(current, dest topology.NodeID, _ topology.Direction, _ bool) []topology.Direction {
	productive := p.topo.MinimalDirections(current, dest)
	if len(productive) == 0 {
		return nil
	}
	best := -1
	for _, d := range productive {
		if ph := p.phaseOf[d]; best == -1 || ph < best {
			best = ph
		}
	}
	out := productive[:0]
	for _, d := range productive {
		if p.phaseOf[d] == best {
			out = append(out, d)
		}
	}
	return out
}

// AppendCandidates implements CandidateAppender: the same lowest-phase
// filter as Candidates, over minimal directions appended into dst.
func (p *phased) AppendCandidates(dst []topology.Direction, current, dest topology.NodeID, _ topology.Direction, _ bool) []topology.Direction {
	base := len(dst)
	if p.ma != nil {
		dst = p.ma.AppendMinimalDirections(dst, current, dest)
	} else {
		dst = append(dst, p.topo.MinimalDirections(current, dest)...)
	}
	productive := dst[base:]
	if len(productive) == 0 {
		return dst[:base]
	}
	best := p.phaseOf[productive[0]]
	for _, d := range productive[1:] {
		if ph := p.phaseOf[d]; ph < best {
			best = ph
		}
	}
	k := base
	for _, d := range productive {
		if p.phaseOf[d] == best {
			dst[k] = d
			k++
		}
	}
	return dst[:k]
}

// ProhibitedTurns lists the 90-degree turns the phase discipline forbids:
// every turn from a direction of a later phase to one of an earlier phase.
func (p *phased) ProhibitedTurns() *turnmodel.Set {
	s := turnmodel.NewSet()
	for _, t := range turnmodel.AllTurns90(p.topo.Dims()) {
		if p.phaseOf[t.From] > p.phaseOf[t.To] {
			s.Add(t)
		}
	}
	return s
}

// TurnCharacterized is implemented by algorithms whose behavior is fully
// described by a prohibited turn set, enabling turn-based verification.
type TurnCharacterized interface {
	ProhibitedTurns() *turnmodel.Set
}

func negatives(n int) []topology.Direction {
	out := make([]topology.Direction, n)
	for i := range out {
		out[i] = topology.Dir(i, false)
	}
	return out
}

func positives(n int) []topology.Direction {
	out := make([]topology.Direction, n)
	for i := range out {
		out[i] = topology.Dir(i, true)
	}
	return out
}
