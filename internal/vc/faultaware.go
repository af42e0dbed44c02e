// Fault-aware routing at the virtual-channel level: the same masking and
// bounded-misroute wrapper internal/routing provides for physical-channel
// algorithms, applied to vc.Algorithm. A fault breaks a physical channel,
// so it takes down every virtual channel multiplexed onto it; the wrapper
// therefore filters Outs by their physical (node, direction) channel.
package vc

import (
	"turnmodel/internal/fault"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// Misrouter is the virtual-channel analog of routing.Misrouter: safe
// nonminimal detour outputs that add no dependency outside the base
// algorithm's deadlock-freedom argument. Lifted physical-channel
// algorithms inherit it from their inner algorithm; the native
// virtual-channel schemes (double-y, dateline dimension-order) do not
// implement it — their safety numbering is tied to minimal progress, so
// they mask faults by filtering only.
type Misrouter interface {
	MisrouteCandidates(current, dest topology.NodeID, inDir topology.Direction, inVC int) []Out
}

// MisrouteCandidates implements Misrouter for lifted algorithms whose
// inner physical-channel algorithm can misroute safely; detours stay on
// the single lifted virtual channel.
func (l lifted) MisrouteCandidates(current, dest topology.NodeID, inDir topology.Direction, _ int) []Out {
	m, ok := l.a.(routing.Misrouter)
	if !ok {
		return nil
	}
	topo := l.a.Topology()
	inWrap := false
	if inDir != topology.Invalid {
		if from, ok := topo.Neighbor(current, inDir.Opposite()); ok {
			inWrap = topo.Wraparound(from, inDir)
		}
	}
	dirs := m.MisrouteCandidates(current, dest, inDir, inWrap)
	out := make([]Out, len(dirs))
	for i, d := range dirs {
		out[i] = Out{d, 0}
	}
	return out
}

// FaultAware wraps a virtual-channel Algorithm with the fault-masking
// ladder of routing.FaultAware: filter outputs on known-broken physical
// channels when a legal alternative survives, optionally fall back to a
// bounded misroute, and otherwise return the base set untouched so the
// packet stalls into recovery exactly as before. Filtering removes
// dependencies from the virtual-channel dependency graph and misrouting
// uses only relations the base algorithm already permits, so deadlock
// freedom is preserved; FaultRelationVC feeds the wrapped relation back
// into FromRouting for a per-fault-set mechanical check. A FaultAware owns
// scratch storage and is not safe for concurrent use.
type FaultAware struct {
	base     Algorithm
	appender CandidateAppender // base's allocation-free form, or nil
	topo     topology.Topology
	health   *fault.Health
	pol      fault.RoutingPolicy
	mis      Misrouter // nil: base cannot misroute safely, or limit is 0

	// ahead is the k-hop look-ahead's stack of candidate sets, one frame
	// per level of deadWithin's recursion, and dirs the direction scratch
	// the base appender asks for; nothing that outlives a decision points
	// into either.
	ahead []Out
	dirs  []topology.Direction

	masked    int64
	misroutes int64
}

// NewFaultAware builds the wrapper; the policy must be enabled.
func NewFaultAware(base Algorithm, health *fault.Health, pol fault.RoutingPolicy) *FaultAware {
	pol = pol.WithDefaults()
	if !pol.Enabled() {
		panic("vc: NewFaultAware requires an enabled policy")
	}
	f := &FaultAware{base: base, topo: base.Topology(), health: health, pol: pol}
	f.appender, _ = base.(CandidateAppender)
	if m, ok := base.(Misrouter); ok && pol.MisrouteLimit > 0 {
		f.mis = m
	}
	return f
}

// Name implements Algorithm; the base name is kept for table stability.
func (f *FaultAware) Name() string { return f.base.Name() }

// Topology implements Algorithm.
func (f *FaultAware) Topology() topology.Topology { return f.topo }

// VCs implements Algorithm.
func (f *FaultAware) VCs(dir topology.Direction) int { return f.base.VCs(dir) }

// Base returns the wrapped algorithm.
func (f *FaultAware) Base() Algorithm { return f.base }

// MaskedDecisions counts routing decisions narrowed because of faults.
func (f *FaultAware) MaskedDecisions() int64 { return f.masked }

// MisrouteDecisions counts decisions that fell back to a misroute set.
func (f *FaultAware) MisrouteDecisions() int64 { return f.misroutes }

// Candidates implements Algorithm with the misroute budget treated as
// always available — the over-approximation CDG construction wants. The
// simulator calls AppendFaultCandidates with the packet's actual count.
func (f *FaultAware) Candidates(current, dest topology.NodeID, inDir topology.Direction, inVC int) []Out {
	outs, _ := f.FaultCandidates(current, dest, inDir, inVC, 0)
	return outs
}

// FaultCandidates mirrors routing.(*FaultAware).FaultCandidates on
// virtual-channel outputs; the second result marks a misroute fallback
// set. See that method for the four-case ladder. It is the allocating form
// of AppendFaultCandidates.
func (f *FaultAware) FaultCandidates(current, dest topology.NodeID, inDir topology.Direction, inVC, misrouted int) ([]Out, bool) {
	return f.AppendFaultCandidates(nil, current, dest, inDir, inVC, misrouted)
}

// appendBase appends the base algorithm's candidates to dst, without
// allocating when the algorithm can.
func (f *FaultAware) appendBase(dst []Out, current, dest topology.NodeID, inDir topology.Direction, inVC int) []Out {
	if f.appender != nil {
		dst, f.dirs = f.appender.AppendCandidates(dst, f.dirs, current, dest, inDir, inVC)
		return dst
	}
	return append(dst, f.base.Candidates(current, dest, inDir, inVC)...)
}

// AppendFaultCandidates is FaultCandidates appending into dst: the same
// outputs in the same order, in the caller's storage — the simulator passes
// the worm's own buffer and keeps the result while the header waits, so it
// never points into the wrapper — and with no allocation per decision when
// the base algorithm implements CandidateAppender (the misroute fallback,
// taken when every candidate is known dead, still builds its set afresh).
func (f *FaultAware) AppendFaultCandidates(dst []Out, current, dest topology.NodeID, inDir topology.Direction, inVC, misrouted int) ([]Out, bool) {
	start := len(dst)
	dst = f.appendBase(dst, current, dest, inDir, inVC)
	base := dst[start:]
	if len(base) == 0 || !f.health.Sees(current) {
		return dst, false
	}
	// Filter in place: nothing is overwritten unless it survives the
	// filter, so the unfiltered set stays intact whenever we fall through.
	keep := dst[:start]
	khop := f.health.Visibility() == fault.VisibilityKHop
	for _, o := range base {
		if f.health.Faulted(current, o.Dir) {
			continue
		}
		if khop && f.deadWithin(current, dest, current, o, f.health.Radius()) {
			continue
		}
		keep = append(keep, o)
	}
	if len(keep) > start {
		if len(keep) < len(dst) {
			f.masked++
		}
		return keep, false
	}
	if f.mis != nil && misrouted < f.pol.MisrouteLimit {
		if alt := f.misrouteSet(current, dest, inDir, inVC); len(alt) > 0 {
			f.masked++
			f.misroutes++
			return append(keep, alt...), true
		}
	}
	return dst, false
}

// deadWithin reports whether taking output o from node leads into a
// region router origin knows to be dead within the lookahead depth (see
// routing.(*FaultAware).deadWithin).
func (f *FaultAware) deadWithin(origin, dest, node topology.NodeID, o Out, depth int) bool {
	if depth <= 0 {
		return false
	}
	nb, ok := f.topo.Neighbor(node, o.Dir)
	if !ok || nb == dest {
		return false
	}
	// This level's candidates are a frame on the look-ahead stack: indexed,
	// not ranged over, because a deeper level may grow — and move — it.
	start := len(f.ahead)
	f.ahead = f.appendBase(f.ahead, nb, dest, o.Dir, o.VC)
	end := len(f.ahead)
	dead := end > start
	for i := start; i < end && dead; i++ {
		no := f.ahead[i]
		if f.health.Known(origin, nb, no.Dir) {
			continue // known broken; try the next continuation
		}
		dead = f.deadWithin(origin, dest, nb, no, depth-1)
	}
	f.ahead = f.ahead[:start]
	return dead
}

// misrouteSet is the base algorithm's safe detour set minus directly
// broken channels.
func (f *FaultAware) misrouteSet(current, dest topology.NodeID, inDir topology.Direction, inVC int) []Out {
	alt := f.mis.MisrouteCandidates(current, dest, inDir, inVC)
	keep := alt[:0]
	for _, o := range alt {
		if f.health.Faulted(current, o.Dir) {
			continue
		}
		keep = append(keep, o)
	}
	return keep
}
