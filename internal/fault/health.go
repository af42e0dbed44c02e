package fault

import (
	"fmt"

	"turnmodel/internal/topology"
)

// Visibility selects how much of the fault set each router can see when
// fault-aware routing is enabled (see RoutingPolicy and docs/fault-routing.md).
type Visibility int

const (
	// VisibilityOff disables fault-aware routing: routers route as if the
	// network were healthy and rely on recovery to clean up after faults.
	VisibilityOff Visibility = iota
	// VisibilityLocal gives each router knowledge of its own incident
	// channels only — the minimum any real router has, since a dead output
	// link is directly observable.
	VisibilityLocal
	// VisibilityKHop additionally disseminates fault state to every router
	// within Radius hops of a broken channel's source, refreshed once per
	// cycle from an epoch-stamped snapshot, so routers can steer away
	// before their header reaches the dead link.
	VisibilityKHop
)

// String implements fmt.Stringer with the names the CLI accepts.
func (v Visibility) String() string {
	switch v {
	case VisibilityOff:
		return "off"
	case VisibilityLocal:
		return "local"
	case VisibilityKHop:
		return "khop"
	}
	return fmt.Sprintf("Visibility(%d)", int(v))
}

// ParseVisibility parses the CLI names "off", "local" and "khop".
func ParseVisibility(s string) (Visibility, error) {
	switch s {
	case "off":
		return VisibilityOff, nil
	case "local":
		return VisibilityLocal, nil
	case "khop":
		return VisibilityKHop, nil
	}
	return VisibilityOff, fmt.Errorf("fault: unknown visibility %q (want off, local or khop)", s)
}

// DefaultRadius is the k-hop dissemination horizon used when a policy
// enables VisibilityKHop without choosing one.
const DefaultRadius = 2

// RoutingPolicy configures the fault-aware routing wrapper
// (routing.NewFaultAware): how much of the fault set routers see, and how
// many nonminimal detour hops a packet may take when every minimal
// candidate is known dead. The zero value disables fault-aware routing.
type RoutingPolicy struct {
	// Visibility selects the health model (off disables the wrapper).
	Visibility Visibility
	// Radius is the k-hop dissemination horizon; only meaningful with
	// VisibilityKHop. 0 selects DefaultRadius.
	Radius int
	// MisrouteLimit caps the nonminimal detour hops per packet attempt.
	// Misrouting only ever uses directions the wrapped algorithm's own
	// turn relation permits (see routing.Misrouter), and only algorithms
	// implementing that interface misroute at all. 0 disables misrouting.
	MisrouteLimit int
}

// Enabled reports whether the policy turns fault-aware routing on.
func (p RoutingPolicy) Enabled() bool { return p.Visibility != VisibilityOff }

// WithDefaults fills in the default k-hop radius.
func (p RoutingPolicy) WithDefaults() RoutingPolicy {
	if p.Visibility == VisibilityKHop && p.Radius <= 0 {
		p.Radius = DefaultRadius
	}
	if p.MisrouteLimit < 0 {
		p.MisrouteLimit = 0
	}
	return p
}

// String renders the policy in the CLI's -ftroute/-misroute vocabulary.
func (p RoutingPolicy) String() string {
	if !p.Enabled() {
		return "off"
	}
	s := p.Visibility.String()
	if p.Visibility == VisibilityKHop {
		s = fmt.Sprintf("%s(r=%d)", s, p.Radius)
	}
	if p.MisrouteLimit > 0 {
		s = fmt.Sprintf("%s+misroute%d", s, p.MisrouteLimit)
	}
	return s
}

// Health is the routers' view of a fault State under a RoutingPolicy. A
// router always sees its own incident channels live (they are directly
// observable); under VisibilityKHop it additionally sees an epoch-stamped
// snapshot of channels whose source lies within the dissemination radius.
//
// The snapshot is re-derived only when State.Epoch moves, so with faults
// off (or simply quiescent) a per-cycle Refresh costs one comparison and
// zero allocations — the property the simulators' hot loops require.
type Health struct {
	topo   topology.Topology
	state  *State
	vis    Visibility
	radius int
	dims2  int

	epoch int64
	// known is the epoch-stamped snapshot of State.Faulted used for k-hop
	// knowledge; empty until the first fault ever appears, and treated as
	// all-healthy while empty.
	known []bool
}

// NewHealth builds the health view of a fault state. The policy must be
// enabled and the state non-nil; the simulators only construct a Health
// when both hold.
func NewHealth(topo topology.Topology, state *State, pol RoutingPolicy) *Health {
	h := new(Health)
	h.Reset(topo, state, pol)
	return h
}

// Reset rebuilds the view in place, for a state that has just been built
// or reset: afterwards h is what NewHealth(topo, state, pol) returns. The
// snapshot keeps its storage.
func (h *Health) Reset(topo topology.Topology, state *State, pol RoutingPolicy) {
	if state == nil {
		panic("fault: NewHealth requires a fault state")
	}
	pol = pol.WithDefaults()
	if !pol.Enabled() {
		panic("fault: NewHealth requires an enabled routing policy")
	}
	h.topo, h.state = topo, state
	h.vis, h.radius, h.dims2 = pol.Visibility, pol.Radius, 2*topo.Dims()
	h.epoch, h.known = 0, h.known[:0]
	h.Refresh()
}

// Refresh updates the k-hop snapshot if the fault set changed since the
// last call. The simulators call it once per cycle, right after
// State.Advance; local visibility needs no snapshot and returns
// immediately.
func (h *Health) Refresh() {
	if h.vis != VisibilityKHop {
		return
	}
	e := h.state.Epoch()
	if e == h.epoch {
		return
	}
	h.known = append(h.known[:0], h.state.Faulted...)
	h.epoch = e
}

// Active reports how many channels are currently broken; the wrapper's
// fast path bypasses all filtering when it returns 0.
func (h *Health) Active() int { return h.state.ActiveFaults() }

// Visibility returns the health model in effect.
func (h *Health) Visibility() Visibility { return h.vis }

// Radius returns the k-hop dissemination horizon (0 under local
// visibility).
func (h *Health) Radius() int {
	if h.vis != VisibilityKHop {
		return 0
	}
	return h.radius
}

// Faulted reports, from live state, whether the channel leaving `from` in
// direction `dir` is broken. Routers may only consult it for their own
// incident channels — remote knowledge goes through Known.
func (h *Health) Faulted(from topology.NodeID, dir topology.Direction) bool {
	return h.state.Faulted[int(from)*h.dims2+int(dir)]
}

// Known reports whether router r knows that the channel leaving `from` in
// direction `dir` is broken: live knowledge for r's own channels, and
// under VisibilityKHop the epoch-stamped snapshot for channels whose
// source lies within the dissemination radius.
func (h *Health) Known(r, from topology.NodeID, dir topology.Direction) bool {
	if r == from {
		return h.Faulted(from, dir)
	}
	if h.vis != VisibilityKHop || len(h.known) == 0 {
		return false
	}
	if !h.known[int(from)*h.dims2+int(dir)] {
		return false
	}
	return h.topo.Distance(r, from) <= h.radius
}
