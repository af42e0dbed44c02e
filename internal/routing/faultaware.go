// Fault-aware routing: a wrapper that lets any algorithm's surviving
// adaptivity mask broken channels, instead of leaving every fault to the
// abort/retry recovery path. See docs/fault-routing.md for the safety
// argument; turnmodel.FromRoutingFaulted checks it mechanically.
package routing

import (
	"turnmodel/internal/fault"
	"turnmodel/internal/topology"
	"turnmodel/internal/turnmodel"
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
// At a router that knows of no broken channel (fault.Health.Sees) the
// wrapper delegates to the base algorithm untouched (one load), so
// fault-aware routing costs nothing while the network is healthy, and
// nothing at the routers a fault is too far away to see. A FaultAware is
// bound to one simulator instance through its Health and is not safe for
// concurrent use across engines.
type FaultAware struct {
	base     Algorithm
	appender CandidateAppender // base's allocation-free form, or nil
	topo     topology.Topology
	health   *fault.Health
	pol      fault.RoutingPolicy
	mis      Misrouter // nil: base cannot misroute safely, or limit is 0

	// ahead is the k-hop look-ahead's stack of candidate sets, one frame
	// per level of deadWithin's recursion; nothing that outlives a decision
	// points into it.
	ahead []topology.Direction

	masked    int64
	misroutes int64
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
	pol = pol.WithDefaults()
	if !pol.Enabled() {
		panic("routing: NewFaultAware requires an enabled policy")
	}
	*f = FaultAware{base: base, topo: base.Topology(), health: health, pol: pol, ahead: f.ahead[:0]}
	f.appender, _ = base.(CandidateAppender)
	if m, ok := base.(Misrouter); ok && pol.MisrouteLimit > 0 {
		f.mis = m
	}
}

// Name implements Algorithm; the wrapper keeps the base algorithm's name
// so sweep tables stay comparable across fault-routing modes.
func (f *FaultAware) Name() string { return f.base.Name() }

// Topology implements Algorithm.
func (f *FaultAware) Topology() topology.Topology { return f.topo }

// Base returns the wrapped algorithm.
func (f *FaultAware) Base() Algorithm { return f.base }

// Policy returns the policy in effect (with defaults applied).
func (f *FaultAware) Policy() fault.RoutingPolicy { return f.pol }

// MaskedDecisions counts routing decisions whose candidate set was
// narrowed (or replaced by a misroute set) because of known faults.
func (f *FaultAware) MaskedDecisions() int64 { return f.masked }

// MisrouteDecisions counts decisions that fell back to a misroute set.
func (f *FaultAware) MisrouteDecisions() int64 { return f.misroutes }

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
// already taken `misrouted` nonminimal hops:
//
//  1. At a router that sees no broken channel, the base algorithm's
//     candidates, untouched: every step below would keep them all.
//  2. Otherwise, the base candidates minus those the current router knows
//     are dead — directly broken incident channels, and under k-hop
//     visibility channels leading into a region whose every continuation
//     is known dead within the dissemination horizon.
//  3. If that filter would empty the set and misroute budget remains, the
//     base algorithm's safe detour directions (minus broken ones).
//  4. If no alternative survives, the unfiltered base set: the packet
//     waits on the dead channel and recovery eventually aborts it, the
//     exact pre-wrapper behavior. The candidate set is therefore never
//     emptied by masking.
//
// The second result reports case 3: every returned direction is then a
// nonminimal detour, and a hop taken from the set counts against the
// packet's misroute budget.
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
// fallback of case 3, taken when every candidate is known dead, still
// builds its set afresh).
func (f *FaultAware) AppendFaultCandidates(dst []topology.Direction, current, dest topology.NodeID, in topology.Direction, inWrap bool, misrouted int) ([]topology.Direction, bool) {
	start := len(dst)
	dst = f.appendBase(dst, current, dest, in, inWrap)
	base := dst[start:]
	if len(base) == 0 || !f.health.Sees(current) {
		return dst, false
	}
	// Filter in place: nothing is overwritten unless it survives the
	// filter, so the unfiltered set stays intact whenever we fall through.
	keep := dst[:start]
	khop := f.health.Visibility() == fault.VisibilityKHop
	for _, d := range base {
		if f.health.Faulted(current, d) {
			continue
		}
		if khop && f.deadWithin(current, dest, current, d, f.health.Radius()) {
			continue
		}
		keep = append(keep, d)
	}
	if len(keep) > start {
		if len(keep) < len(dst) {
			f.masked++
		}
		return keep, false
	}
	if f.mis != nil && misrouted < f.pol.MisrouteLimit {
		if alt := f.misrouteSet(current, dest, in, inWrap); len(alt) > 0 {
			f.masked++
			f.misroutes++
			return append(keep, alt...), true
		}
	}
	return dst, false
}

// deadWithin reports whether hopping from node along d leads into a region
// router `origin` knows to be dead: within the remaining lookahead depth,
// every continuation the base relation offers hits a channel origin knows
// is broken. depth bounds both the recursion and — because knowledge of a
// channel requires its source within the dissemination radius — the
// knowledge the check relies on.
func (f *FaultAware) deadWithin(origin, dest, node topology.NodeID, d topology.Direction, depth int) bool {
	if depth <= 0 {
		return false
	}
	nb, ok := f.topo.Neighbor(node, d)
	if !ok || nb == dest {
		return false
	}
	// This level's candidates are a frame on the look-ahead stack: indexed,
	// not ranged over, because a deeper level may grow — and move — it.
	start := len(f.ahead)
	f.ahead = f.appendBase(f.ahead, nb, dest, d, f.topo.Wraparound(node, d))
	end := len(f.ahead)
	dead := end > start
	for i := start; i < end && dead; i++ {
		nd := f.ahead[i]
		if f.health.Known(origin, nb, nd) {
			continue // known broken; try the next continuation
		}
		dead = f.deadWithin(origin, dest, nb, nd, depth-1)
	}
	f.ahead = f.ahead[:start]
	return dead
}

// misrouteSet is the base algorithm's safe detour set minus directly
// broken channels.
func (f *FaultAware) misrouteSet(current, dest topology.NodeID, in topology.Direction, inWrap bool) []topology.Direction {
	alt := f.mis.MisrouteCandidates(current, dest, in, inWrap)
	keep := alt[:0]
	for _, d := range alt {
		if f.health.Faulted(current, d) {
			continue
		}
		keep = append(keep, d)
	}
	return keep
}

// FaultRelation adapts a FaultAware wrapper to the turnmodel.CandidateFunc
// used to build the dependency graph of the faulted configuration: the
// channels a packet at (current, in) may wait for, with the misroute
// budget treated as always available — a conservative over-approximation
// of every per-packet bound, so acyclicity of this relation's graph
// implies deadlock freedom of the budgeted behavior.
func FaultRelation(f *FaultAware) turnmodel.CandidateFunc {
	return Relation(f)
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
