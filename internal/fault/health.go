package fault

import (
	"fmt"
	"slices"

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
// The snapshot and the per-router view (Sees) are re-derived only when
// State.Epoch moves, so with faults off (or simply quiescent) a per-cycle
// Refresh costs one comparison and zero allocations — the property the
// simulators' hot loops require.
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
	// reach is the per-router view, indexed by node: 0 where the router
	// knows of no broken channel, otherwise 1 + the most hops left to walk
	// when the ball of some broken channel's source reached it (the radius
	// under k-hop visibility, 0 under local).
	reach []int32
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
// snapshot and the per-router view keep their storage.
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
	n := topo.Nodes()
	h.reach = slices.Grow(h.reach[:0], n)[:n]
	clear(h.reach)
	h.Refresh()
}

// Refresh re-derives what the routers know if the fault set changed since
// the last call: the k-hop snapshot, and the per-router view Sees reads.
// The simulators call it once per cycle, right after State.Advance.
func (h *Health) Refresh() {
	e := h.state.Epoch()
	if e == h.epoch {
		return
	}
	h.epoch = e
	if h.vis == VisibilityKHop {
		h.known = append(h.known[:0], h.state.Faulted...)
	}
	clear(h.reach)
	for key, broken := range h.state.Faulted {
		if broken {
			h.mark(topology.NodeID(key/h.dims2), h.Radius())
		}
	}
}

// mark adds to the view every router within left hops of node: those are
// the routers that know of a broken channel leaving the node where the walk
// started. A router the walk already reached with at least as many hops
// left has had its ball walked, so each router is expanded at most once
// per remaining distance.
func (h *Health) mark(node topology.NodeID, left int) {
	if h.reach[node] > int32(left) {
		return
	}
	h.reach[node] = int32(left) + 1
	if left == 0 {
		return
	}
	for d := 0; d < h.dims2; d++ {
		if nb, ok := h.topo.Neighbor(node, topology.Direction(d)); ok {
			h.mark(nb, left-1)
		}
	}
}

// Sees reports whether router r knows of any broken channel as of the last
// Refresh: whether Known(r, from, dir) holds for some channel. A router
// that sees nothing routes as if the network were healthy.
func (h *Health) Sees(r topology.NodeID) bool { return h.reach[r] != 0 }

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
