// Fault-aware routing: a wrapper that lets any algorithm's surviving
// adaptivity mask broken channels, instead of leaving every fault to the
// abort/retry recovery path. See docs/fault-routing.md for the safety
// argument; turnmodel.FromRoutingFaulted checks it mechanically.
package routing

import (
	"turnmodel/internal/fault"
	"turnmodel/internal/topology"
)

// Misrouter is implemented by algorithms that can offer nonminimal detour
// directions without growing their allowed-turn set. Every returned
// direction must be reachable from the packet's arrival direction by a
// turn the algorithm already permits, and must leave the packet in a state
// from which the algorithm's own relation continues using permitted turns
// only — so adding misroute hops adds channel dependencies but never a
// dependency the algorithm's deadlock-freedom argument does not already
// cover. Returned directions never include the arrival U-turn and never
// use wraparound channels.
//
// The phase-ordered algorithms implement it by detouring within the
// packet's current phase, and only along directions whose opposite lies in
// a strictly later phase (so the correction hop is a permitted turn into a
// later phase and the detour can never be retaken — see misrouteInPhase
// for why the strictness matters). On the hypercube this reproduces
// exactly the Section 5 nonminimal p-cube relation; algorithms without a
// safe detour rule (the classified-direction torus variant, the
// deliberately unsafe fully adaptive baseline) simply do not implement
// the interface and never misroute, and disciplines whose phases pair
// opposite directions (dimension-order) implement it vacuously.
type Misrouter interface {
	MisrouteCandidates(current, dest topology.NodeID, in topology.Direction, inWrap bool) []topology.Direction
}

// FaultAware wraps a routing Algorithm so that candidates on channels the
// current router knows to be broken are filtered out of the candidate set,
// with an optional bounded misroute fallback when every minimal candidate
// is known dead. Filtering only ever removes dependencies from the
// algorithm's channel dependency graph, and misrouting only uses turns the
// algorithm already permits (see Misrouter), so the wrapper preserves
// deadlock freedom — a claim turnmodel.FromRoutingFaulted verifies per
// fault set rather than assumes.
//
// It is the physical-channel front-end of the Mask ladder, which
// vc.FaultAware shares. At a router that knows of no broken channel
// (fault.Health.Sees) the wrapper delegates to the base algorithm untouched
// (one load), so fault-aware routing costs nothing while the network is
// healthy, and nothing at the routers a fault is too far away to see. A
// FaultAware is bound to one simulator instance through its Health and is
// not safe for concurrent use across engines.
type FaultAware struct {
	base     Algorithm
	appender CandidateAppender // base's allocation-free form, or nil
	mask     Mask[topology.Direction]
}

// NewFaultAware builds the fault-aware wrapper for a base algorithm over
// the given health view. The policy must be enabled.
func NewFaultAware(base Algorithm, health *fault.Health, pol fault.RoutingPolicy) *FaultAware {
	f := new(FaultAware)
	f.Reset(base, health, pol)
	return f
}

// Reset rebinds the wrapper in place: afterwards f is what
// NewFaultAware(base, health, pol) returns, its counters zero, with the
// look-ahead stack's storage kept.
func (f *FaultAware) Reset(base Algorithm, health *fault.Health, pol fault.RoutingPolicy) {
	f.base = base
	f.appender, _ = base.(CandidateAppender)
	f.mask.Reset(base.Topology(), health, pol, (*physicalBase)(f))
}

// Name implements Algorithm; the wrapper keeps the base algorithm's name
// so sweep tables stay comparable across fault-routing modes.
func (f *FaultAware) Name() string { return f.base.Name() }

// Topology implements Algorithm.
func (f *FaultAware) Topology() topology.Topology { return f.mask.topo }

// MaskedDecisions counts routing decisions whose candidate set was
// narrowed (or replaced by a misroute set) because of known faults.
func (f *FaultAware) MaskedDecisions() int64 { return f.mask.MaskedDecisions() }

// MisrouteDecisions counts decisions that fell back to a misroute set.
func (f *FaultAware) MisrouteDecisions() int64 { return f.mask.MisrouteDecisions() }

// Candidates implements Algorithm: the relation with the misroute budget
// treated as always available. The simulators instead call FaultCandidates
// (or its append form) with the packet's actual misroute count; this form
// over-approximates it (a superset of every budgeted relation), which is
// exactly what CDG construction wants.
func (f *FaultAware) Candidates(current, dest topology.NodeID, in topology.Direction, inWrap bool) []topology.Direction {
	cands, _ := f.FaultCandidates(current, dest, in, inWrap, 0)
	return cands
}

// FaultCandidates lists the permitted outputs for a packet that has
// already taken `misrouted` nonminimal hops, by the Mask ladder over the
// base algorithm's candidates. The second result reports a misroute
// fallback: every returned direction is then a nonminimal detour, and a hop
// taken from the set counts against the packet's misroute budget.
func (f *FaultAware) FaultCandidates(current, dest topology.NodeID, in topology.Direction, inWrap bool, misrouted int) ([]topology.Direction, bool) {
	return f.AppendFaultCandidates(nil, current, dest, in, inWrap, misrouted)
}

// appendBase appends the base algorithm's candidates to dst, without
// allocating when the algorithm can.
func (f *FaultAware) appendBase(dst []topology.Direction, current, dest topology.NodeID, in topology.Direction, inWrap bool) []topology.Direction {
	if f.appender != nil {
		return f.appender.AppendCandidates(dst, current, dest, in, inWrap)
	}
	return append(dst, f.base.Candidates(current, dest, in, inWrap)...)
}

// AppendFaultCandidates is FaultCandidates appending into dst: the same
// directions in the same order, in the caller's storage — the simulators
// pass the worm's own buffer and keep the result while the header waits, so
// it never points into the wrapper — and with no allocation per decision
// when the base algorithm implements CandidateAppender (the misroute
// fallback, taken when every candidate is known dead, still builds its set
// afresh).
func (f *FaultAware) AppendFaultCandidates(dst []topology.Direction, current, dest topology.NodeID, in topology.Direction, inWrap bool, misrouted int) ([]topology.Direction, bool) {
	start := len(dst)
	return f.mask.Apply(f.appendBase(dst, current, dest, in, inWrap), start, current, dest, in, misrouted)
}

// physicalBase is the MaskBase view of a FaultAware: outputs are
// directions, and the arrival wrap flag follows from the hop taken.
type physicalBase FaultAware

func (*physicalBase) Dir(d topology.Direction) topology.Direction { return d }

func (b *physicalBase) AppendNext(dst []topology.Direction, node, next, dest topology.NodeID, d topology.Direction) []topology.Direction {
	return (*FaultAware)(b).appendBase(dst, next, dest, d, b.mask.topo.Wraparound(node, d))
}

func (b *physicalBase) Misroute(current, dest topology.NodeID, in topology.Direction) []topology.Direction {
	m, ok := b.base.(Misrouter)
	if !ok {
		return nil
	}
	return m.MisrouteCandidates(current, dest, in, ArrivalWrap(b.mask.topo, current, in))
}

// MaskBase is what the Mask ladder needs of the base relation it masks,
// over the relation's output type O: a direction for the physical
// (topology.Direction) relation, a (direction, virtual channel) pair for
// the virtual-channel one.
type MaskBase[O any] interface {
	// Dir is the physical direction output o leaves on; a fault breaks
	// every output on it.
	Dir(o O) topology.Direction
	// AppendNext appends to dst the base candidates at next, for a packet
	// that reached it from node over output o.
	AppendNext(dst []O, node, next, dest topology.NodeID, o O) []O
	// Misroute lists the base algorithm's safe detours (see Misrouter) at
	// current for a packet that arrived over output in, or nil when the
	// base cannot misroute safely. The result may be filtered in place.
	Misroute(current, dest topology.NodeID, in O) []O
}

// Mask is the fault-masking ladder, written once for both output types:
// routing.FaultAware and vc.FaultAware are its front-ends, each supplying
// only its base candidates and a MaskBase.
type Mask[O any] struct {
	topo   topology.Topology
	health *fault.Health
	limit  int // misroute budget
	base   MaskBase[O]

	// ahead is the k-hop look-ahead's stack of candidate sets, one frame
	// per level of deadWithin's recursion; nothing that outlives a decision
	// points into it.
	ahead []O

	masked    int64
	misroutes int64
}

// Reset binds the ladder to a topology, a health view, an enabled policy
// and a base, with zero counters and the look-ahead stack's storage kept.
func (m *Mask[O]) Reset(topo topology.Topology, health *fault.Health, pol fault.RoutingPolicy, base MaskBase[O]) {
	pol = pol.WithDefaults()
	if !pol.Enabled() {
		panic("routing: fault masking requires an enabled policy")
	}
	*m = Mask[O]{topo: topo, health: health, limit: pol.MisrouteLimit, base: base, ahead: m.ahead[:0]}
}

// MaskedDecisions counts decisions whose candidate set was narrowed (or
// replaced by a misroute set) because of known faults.
func (m *Mask[O]) MaskedDecisions() int64 { return m.masked }

// MisrouteDecisions counts decisions that fell back to a misroute set.
func (m *Mask[O]) MisrouteDecisions() int64 { return m.misroutes }

// Apply runs the ladder on the base candidates dst[start:] of a packet at
// current, destined for dest, that arrived over output in and has already
// taken `misrouted` nonminimal hops:
//
//  1. At a router that sees no broken channel, the base candidates,
//     untouched: every step below would keep them all.
//  2. Otherwise, the base candidates minus those the current router knows
//     are dead — directly broken incident channels, and under k-hop
//     visibility channels leading into a region whose every continuation
//     is known dead within the dissemination horizon.
//  3. If that filter would empty the set and misroute budget remains, the
//     base algorithm's safe detours (minus broken ones).
//  4. If no alternative survives, the unfiltered base set: the packet
//     waits on the dead channel and recovery eventually aborts it, the
//     exact pre-wrapper behavior. The candidate set is therefore never
//     emptied by masking.
//
// The second result reports case 3. dst[:start] is left untouched.
func (m *Mask[O]) Apply(dst []O, start int, current, dest topology.NodeID, in O, misrouted int) ([]O, bool) {
	base := dst[start:]
	if len(base) == 0 || !m.health.Sees(current) {
		return dst, false
	}
	// Filter in place: nothing is overwritten unless it survives the
	// filter, so the unfiltered set stays intact whenever we fall through.
	keep := dst[:start]
	khop := m.health.Visibility() == fault.VisibilityKHop
	for _, o := range base {
		d := m.base.Dir(o)
		if m.health.Faulted(current, d) {
			continue
		}
		if khop && m.deadWithin(current, dest, current, o, d, m.health.Radius()) {
			continue
		}
		keep = append(keep, o)
	}
	if len(keep) > start {
		if len(keep) < len(dst) {
			m.masked++
		}
		return keep, false
	}
	if misrouted < m.limit {
		if alt := m.misrouteSet(current, dest, in); len(alt) > 0 {
			m.masked++
			m.misroutes++
			return append(keep, alt...), true
		}
	}
	return dst, false
}

// deadWithin reports whether taking output o, on direction d, from node
// leads into a region router `origin` knows to be dead: within the
// remaining lookahead depth, every continuation the base relation offers
// hits a channel origin knows is broken. depth bounds both the recursion
// and — because knowledge of a channel requires its source within the
// dissemination radius — the knowledge the check relies on.
func (m *Mask[O]) deadWithin(origin, dest, node topology.NodeID, o O, d topology.Direction, depth int) bool {
	if depth <= 0 {
		return false
	}
	nb, ok := m.topo.Neighbor(node, d)
	if !ok || nb == dest {
		return false
	}
	// This level's candidates are a frame on the look-ahead stack: indexed,
	// not ranged over, because a deeper level may grow — and move — it.
	start := len(m.ahead)
	m.ahead = m.base.AppendNext(m.ahead, node, nb, dest, o)
	end := len(m.ahead)
	dead := end > start
	for i := start; i < end && dead; i++ {
		no := m.ahead[i]
		nd := m.base.Dir(no)
		if m.health.Known(origin, nb, nd) {
			continue // known broken; try the next continuation
		}
		dead = m.deadWithin(origin, dest, nb, no, nd, depth-1)
	}
	m.ahead = m.ahead[:start]
	return dead
}

// misrouteSet is the base algorithm's safe detour set minus directly
// broken channels.
func (m *Mask[O]) misrouteSet(current, dest topology.NodeID, in O) []O {
	alt := m.base.Misroute(current, dest, in)
	keep := alt[:0]
	for _, o := range alt {
		if !m.health.Faulted(current, m.base.Dir(o)) {
			keep = append(keep, o)
		}
	}
	return keep
}

// misrouteInPhase is the shared detour rule of the phase-ordered
// algorithms: detour only within the packet's current phase (the lowest
// phase with a productive direction), and only along directions whose
// opposite lies in a STRICTLY later phase. The second constraint is what
// keeps the faulted dependency graph acyclic: every correction hop
// (taking d.Opposite() after a detour along d) is then a turn into a
// later phase, which the discipline permits, and no route can ever
// return from that later phase to retake d. Equivalently, dependencies
// only ever point from a channel's phase to the same or a later phase,
// and within one phase no direction coexists with its opposite — the
// layering that makes reversal ping-pong cycles impossible. Allowing
// detours whose opposite shares the phase (east within xy's {west,east},
// say) builds exactly such a cycle: detour east, correct west, and the
// east/west channel chains of one row wait on each other in a ring.
//
// U-turns and wraparound channels are excluded; productive directions
// are not detours. On the hypercube under negative-first phases — where
// phase 0 holds every negative direction and all their opposites sit in
// phase 1 — this is exactly the Section 5 nonminimal p-cube relation.
// Disciplines that pair a direction with its opposite in every phase
// (dimension-order, e-cube) get an empty detour set: they cannot
// misroute safely, matching the paper's observation that routing with
// no alternative paths cannot route around faults.
func misrouteInPhase(topo topology.Topology, phaseOf []int, productive []topology.Direction, current topology.NodeID, in topology.Direction) []topology.Direction {
	if len(productive) == 0 {
		return nil
	}
	best := phaseOf[productive[0]]
	for _, d := range productive[1:] {
		if ph := phaseOf[d]; ph < best {
			best = ph
		}
	}
	var out []topology.Direction
	for dim2 := 0; dim2 < 2*topo.Dims(); dim2++ {
		d := topology.Direction(dim2)
		if phaseOf[d] != best || phaseOf[d.Opposite()] <= best {
			continue
		}
		if in != topology.Invalid && d == in.Opposite() {
			continue
		}
		skip := false
		for _, p := range productive {
			if p == d {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		if _, ok := topo.Neighbor(current, d); !ok {
			continue
		}
		if topo.Wraparound(current, d) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// MisrouteCandidates implements Misrouter for every phase-ordered
// algorithm (see misrouteInPhase).
func (p *phased) MisrouteCandidates(current, dest topology.NodeID, in topology.Direction, _ bool) []topology.Direction {
	return misrouteInPhase(p.topo, p.phaseOf, p.topo.MinimalDirections(current, dest), current, in)
}
