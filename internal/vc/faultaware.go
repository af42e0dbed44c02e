// Fault-aware routing at the virtual-channel level: internal/routing's
// masking and bounded-misroute ladder (routing.Mask), applied to
// vc.Algorithm. A fault breaks a physical channel, so it takes down every
// virtual channel multiplexed onto it; the ladder therefore filters Outs by
// their physical (node, direction) channel.
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
	dirs := m.MisrouteCandidates(current, dest, inDir, routing.ArrivalWrap(l.a.Topology(), current, inDir))
	out := make([]Out, len(dirs))
	for i, d := range dirs {
		out[i] = Out{d, 0}
	}
	return out
}

// FaultAware wraps a virtual-channel Algorithm with routing.Mask, the
// fault-masking ladder routing.FaultAware also fronts: filter outputs on
// known-broken physical channels when a legal alternative survives,
// optionally fall back to a bounded misroute, and otherwise return the base
// set untouched so the packet stalls into recovery exactly as before.
// Filtering removes dependencies from the virtual-channel dependency graph
// and misrouting uses only relations the base algorithm already permits, so
// deadlock freedom is preserved; turnmodel.FromRoutingVC over
// Relation(wrapper), restricted to the surviving channels, checks it per
// fault set. A FaultAware owns scratch storage and is not safe for
// concurrent use.
type FaultAware struct {
	base     Algorithm
	appender CandidateAppender // base's allocation-free form, or nil
	// dirs is the direction scratch the base appender asks for; nothing
	// that outlives a decision points into it.
	dirs []topology.Direction
	mask routing.Mask[Out]
}

// NewFaultAware builds the wrapper; the policy must be enabled.
func NewFaultAware(base Algorithm, health *fault.Health, pol fault.RoutingPolicy) *FaultAware {
	f := &FaultAware{base: base}
	f.appender, _ = base.(CandidateAppender)
	f.mask.Reset(base.Topology(), health, pol, (*vcBase)(f))
	return f
}

// Name implements Algorithm; the base name is kept for table stability.
func (f *FaultAware) Name() string { return f.base.Name() }

// Topology implements Algorithm.
func (f *FaultAware) Topology() topology.Topology { return f.base.Topology() }

// VCs implements Algorithm.
func (f *FaultAware) VCs(dir topology.Direction) int { return f.base.VCs(dir) }

// MaskedDecisions counts routing decisions narrowed because of faults.
func (f *FaultAware) MaskedDecisions() int64 { return f.mask.MaskedDecisions() }

// MisrouteDecisions counts decisions that fell back to a misroute set.
func (f *FaultAware) MisrouteDecisions() int64 { return f.mask.MisrouteDecisions() }

// Candidates implements Algorithm with the misroute budget treated as
// always available — the over-approximation CDG construction wants. The
// simulator calls AppendFaultCandidates with the packet's actual count.
func (f *FaultAware) Candidates(current, dest topology.NodeID, inDir topology.Direction, inVC int) []Out {
	outs, _ := f.FaultCandidates(current, dest, inDir, inVC, 0)
	return outs
}

// FaultCandidates is routing.(*FaultAware).FaultCandidates on
// virtual-channel outputs: the routing.Mask ladder over the base outputs,
// the second result marking a misroute fallback set. It is the allocating
// form of AppendFaultCandidates.
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
	return f.mask.Apply(f.appendBase(dst, current, dest, inDir, inVC), start, current, dest, Out{inDir, inVC}, misrouted)
}

// vcBase is the routing.MaskBase view of a FaultAware: an output leaves on
// its physical direction and is the next hop's arrival virtual channel.
type vcBase FaultAware

func (*vcBase) Dir(o Out) topology.Direction { return o.Dir }

func (b *vcBase) AppendNext(dst []Out, _, next, dest topology.NodeID, o Out) []Out {
	return (*FaultAware)(b).appendBase(dst, next, dest, o.Dir, o.VC)
}

func (b *vcBase) Misroute(current, dest topology.NodeID, in Out) []Out {
	m, ok := b.base.(Misrouter)
	if !ok {
		return nil
	}
	return m.MisrouteCandidates(current, dest, in.Dir, in.VC)
}
