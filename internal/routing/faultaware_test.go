package routing

import (
	"math/rand"
	"sort"
	"testing"

	"turnmodel/internal/fault"
	"turnmodel/internal/topology"
	"turnmodel/internal/turnmodel"
)

// newHealthState builds a fault state from the plan plus the health view a
// wrapper needs, without going through a simulator.
func newHealthState(t *testing.T, topo topology.Topology, plan fault.Plan, pol fault.RoutingPolicy) (*fault.State, *fault.Health) {
	t.Helper()
	if err := fault.Validate(topo, plan); err != nil {
		t.Fatalf("bad plan: %v", err)
	}
	state := fault.MustNew(plan, topo)
	return state, fault.NewHealth(topo, state, pol)
}

// TestFaultedCDGDeadlockFreeRandomFaults is the headline safety property:
// for every registered algorithm whose fault-free dependency graph is
// acyclic, the graph of the faulted configuration under the fault-aware
// masking/misroute relation stays acyclic — at several fault densities,
// under both visibility models, with and without the misroute budget. The
// fault sets are random but seeded, so a failure reproduces exactly.
func TestFaultedCDGDeadlockFreeRandomFaults(t *testing.T) {
	topos := []topology.Topology{
		topology.NewMesh2D(5, 5),
		topology.NewTorus(4, 4),
		topology.NewHypercube(4),
	}
	policies := []fault.RoutingPolicy{
		{Visibility: fault.VisibilityLocal},
		{Visibility: fault.VisibilityKHop, MisrouteLimit: 4},
		{Visibility: fault.VisibilityKHop, Radius: 3, MisrouteLimit: 1},
	}
	densities := []int{1, 3, 7} // broken channels per trial
	rng := rand.New(rand.NewSource(20260806))
	for _, topo := range topos {
		var algs []Algorithm
		for _, name := range Names() {
			alg, err := New(name, topo)
			if err != nil || alg.Name() == "fully-adaptive" {
				continue
			}
			// Only algorithms that are deadlock free on this topology to
			// begin with carry a safety claim to preserve (plain mesh xy
			// constructed on a torus, say, is already cyclic fault free).
			if turnmodel.FromRouting(topo, Relation(alg)).FindCycle() != nil {
				continue
			}
			algs = append(algs, alg)
		}
		if len(algs) < 5 {
			t.Fatalf("%s: only %d verifiable algorithms", topo.Name(), len(algs))
		}
		dims2 := 2 * topo.Dims()
		for _, density := range densities {
			for trial := 0; trial < 3; trial++ {
				plan := randomFaultPlan(rng, topo, density)
				for _, pol := range policies {
					state := fault.MustNew(plan, topo)
					faulted := func(from topology.NodeID, dir topology.Direction) bool {
						return state.Faulted[int(from)*dims2+int(dir)]
					}
					for _, alg := range algs {
						health := fault.NewHealth(topo, state, pol)
						fa := NewFaultAware(alg, health, pol)
						g := turnmodel.FromRoutingFaulted(topo, Relation(fa), faulted)
						if cyc := g.FindCycle(); cyc != nil {
							t.Errorf("%s on %s, faults %+v, policy %s: dependency cycle %v",
								alg.Name(), topo.Name(), plan, pol.WithDefaults(), cyc)
						}
					}
				}
			}
		}
	}
}

// randomFaultPlan draws a static plan with the given number of distinct
// broken channels, plus occasionally a failed node.
func randomFaultPlan(rng *rand.Rand, topo topology.Topology, channels int) fault.Plan {
	var plan fault.Plan
	seen := make(map[int]bool)
	for len(plan.Static) < channels {
		from := topology.NodeID(rng.Intn(topo.Nodes()))
		dir := topology.Direction(rng.Intn(2 * topo.Dims()))
		if _, ok := topo.Neighbor(from, dir); !ok {
			continue
		}
		key := int(from)*2*topo.Dims() + int(dir)
		if seen[key] {
			continue
		}
		seen[key] = true
		plan.Static = append(plan.Static, topology.Channel{From: from, Dir: dir})
	}
	if rng.Intn(3) == 0 {
		plan.Nodes = []topology.NodeID{topology.NodeID(rng.Intn(topo.Nodes()))}
	}
	return plan
}

// TestFaultAwarePassthroughWhenHealthy pins the fast path: with no active
// fault the wrapper returns the base algorithm's candidate slice untouched
// and counts nothing.
func TestFaultAwarePassthroughWhenHealthy(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	alg, err := New("negative-first", mesh)
	if err != nil {
		t.Fatal(err)
	}
	pol := fault.RoutingPolicy{Visibility: fault.VisibilityKHop, MisrouteLimit: 4}
	// A rate-only plan: the state exists but no fault is active yet.
	_, health := newHealthState(t, mesh, fault.Plan{Rate: 1e-9, Seed: 1}, pol)
	fa := NewFaultAware(alg, health, pol)
	for src := 0; src < mesh.Nodes(); src++ {
		for dst := 0; dst < mesh.Nodes(); dst++ {
			if src == dst {
				continue
			}
			want := alg.Candidates(topology.NodeID(src), topology.NodeID(dst), topology.Invalid, false)
			got, mis := fa.FaultCandidates(topology.NodeID(src), topology.NodeID(dst), topology.Invalid, false, 0)
			if mis {
				t.Fatalf("%d->%d: misroute set on a healthy network", src, dst)
			}
			if len(got) != len(want) {
				t.Fatalf("%d->%d: got %v, want %v", src, dst, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%d->%d: got %v, want %v", src, dst, got, want)
				}
			}
		}
	}
	if fa.MaskedDecisions() != 0 || fa.MisrouteDecisions() != 0 {
		t.Errorf("healthy network counted masked=%d misroutes=%d", fa.MaskedDecisions(), fa.MisrouteDecisions())
	}
}

// TestFaultAwareFiltersDeadCandidate checks case 2 of the ladder: when one
// of two productive directions is broken, only the live one survives.
func TestFaultAwareFiltersDeadCandidate(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	alg, err := New("negative-first", mesh)
	if err != nil {
		t.Fatal(err)
	}
	// Node 5 = (1,1) to node 0 = (0,0): productive west and south, both
	// phase 0. Break 5:west.
	pol := fault.RoutingPolicy{Visibility: fault.VisibilityLocal}
	plan := fault.Plan{Static: []topology.Channel{{From: 5, Dir: topology.West}}}
	_, health := newHealthState(t, mesh, plan, pol)
	fa := NewFaultAware(alg, health, pol)
	got, mis := fa.FaultCandidates(5, 0, topology.Invalid, false, 0)
	if mis {
		t.Fatal("filtered decision flagged as misroute")
	}
	if len(got) != 1 || got[0] != topology.South {
		t.Fatalf("candidates = %v, want [south]", got)
	}
	if fa.MaskedDecisions() != 1 {
		t.Errorf("MaskedDecisions = %d, want 1", fa.MaskedDecisions())
	}
}

// TestFaultAwareNeverEmptiesWithoutAlternative checks case 4: a packet
// whose only candidate is dead and whose algorithm cannot misroute gets
// the unfiltered base set back, never an empty one.
func TestFaultAwareNeverEmptiesWithoutAlternative(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	alg, err := New("xy", mesh)
	if err != nil {
		t.Fatal(err)
	}
	pol := fault.RoutingPolicy{Visibility: fault.VisibilityKHop, MisrouteLimit: 4}
	plan := fault.Plan{Static: []topology.Channel{{From: 5, Dir: topology.East}}}
	_, health := newHealthState(t, mesh, plan, pol)
	fa := NewFaultAware(alg, health, pol)
	// 5 -> 7 under xy: the only candidate is east, which is dead, and xy's
	// opposite-paired phases leave no safe detour.
	got, mis := fa.FaultCandidates(5, 7, topology.Invalid, false, 0)
	if mis {
		t.Fatal("xy produced a misroute set")
	}
	if len(got) != 1 || got[0] != topology.East {
		t.Fatalf("candidates = %v, want the unfiltered [east]", got)
	}
}

// TestFaultAwareMisrouteFallback checks case 3 and the budget: an adaptive
// algorithm whose every productive direction is dead detours along a
// permitted direction while budget remains, and reverts to the stalled
// base set when the budget is spent.
func TestFaultAwareMisrouteFallback(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	alg, err := New("negative-first", mesh)
	if err != nil {
		t.Fatal(err)
	}
	pol := fault.RoutingPolicy{Visibility: fault.VisibilityLocal, MisrouteLimit: 2}
	// At node 5 = (1,1) toward 4 = (0,1) the only productive direction is
	// west; break it. The negative phase still holds the non-productive
	// south detour, whose opposite (north) sits in the later phase.
	plan := fault.Plan{Static: []topology.Channel{{From: 5, Dir: topology.West}}}
	_, health := newHealthState(t, mesh, plan, pol)
	fa := NewFaultAware(alg, health, pol)
	got, mis := fa.FaultCandidates(5, 4, topology.Invalid, false, 0)
	if !mis {
		t.Fatalf("expected a misroute set, got %v", got)
	}
	if len(got) != 1 || got[0] != topology.South {
		t.Fatalf("misroute set = %v, want [south]", got)
	}
	if fa.MisrouteDecisions() != 1 {
		t.Errorf("MisrouteDecisions = %d, want 1", fa.MisrouteDecisions())
	}
	// Budget exhausted: back to the stalled base set.
	got, mis = fa.FaultCandidates(5, 4, topology.Invalid, false, pol.MisrouteLimit)
	if mis {
		t.Fatal("misroute set granted beyond the budget")
	}
	if len(got) != 1 || got[0] != topology.West {
		t.Fatalf("exhausted budget returned %v, want the dead productive [west]", got)
	}
}

// TestMisrouteDetoursStayInPhaseWithLaterOpposite pins the safety rule of
// misrouteInPhase directly: every detour the phased algorithms offer lies
// in the packet's current phase and its opposite lies in a strictly later
// phase, so the correction hop is a permitted turn that can never return.
func TestMisrouteDetoursStayInPhaseWithLaterOpposite(t *testing.T) {
	topos := []topology.Topology{topology.NewMesh2D(5, 5), topology.NewHypercube(4)}
	rng := rand.New(rand.NewSource(7))
	for _, topo := range topos {
		for _, name := range []string{"negative-first", "west-first", "north-last", "p-cube"} {
			alg, err := New(name, topo)
			if err != nil {
				continue // p-cube needs a hypercube; west-first a 2D mesh
			}
			p, ok := alg.(*phased)
			if !ok {
				t.Fatalf("%s is not phased", name)
			}
			for trial := 0; trial < 200; trial++ {
				cur := topology.NodeID(rng.Intn(topo.Nodes()))
				dst := topology.NodeID(rng.Intn(topo.Nodes()))
				if cur == dst {
					continue
				}
				in := topology.Invalid
				if rng.Intn(2) == 0 {
					in = topology.Direction(rng.Intn(2 * topo.Dims()))
				}
				productive := topo.MinimalDirections(cur, dst)
				best := p.phaseOf[productive[0]]
				for _, d := range productive[1:] {
					if ph := p.phaseOf[d]; ph < best {
						best = ph
					}
				}
				for _, d := range p.MisrouteCandidates(cur, dst, in, false) {
					if p.phaseOf[d] != best {
						t.Fatalf("%s on %s at %d->%d: detour %v outside current phase", name, topo.Name(), cur, dst, d)
					}
					if p.phaseOf[d.Opposite()] <= best {
						t.Fatalf("%s on %s at %d->%d: detour %v has its opposite in phase %d <= %d",
							name, topo.Name(), cur, dst, d, p.phaseOf[d.Opposite()], best)
					}
					if in != topology.Invalid && d == in.Opposite() {
						t.Fatalf("%s on %s at %d->%d: detour %v is the arrival U-turn", name, topo.Name(), cur, dst, d)
					}
				}
			}
		}
	}
}

// TestDimensionOrderCannotMisroute: disciplines that pair every direction
// with its opposite in the same phase have no safe detour — the paper's
// observation that a single-path algorithm cannot route around faults.
func TestDimensionOrderCannotMisroute(t *testing.T) {
	mesh := topology.NewMesh2D(5, 5)
	for _, name := range []string{"xy", "dimension-order"} {
		alg, err := New(name, mesh)
		if err != nil {
			t.Fatal(err)
		}
		m, ok := alg.(Misrouter)
		if !ok {
			t.Fatalf("%s does not implement Misrouter", name)
		}
		for src := 0; src < mesh.Nodes(); src++ {
			for dst := 0; dst < mesh.Nodes(); dst++ {
				if src == dst {
					continue
				}
				if alt := m.MisrouteCandidates(topology.NodeID(src), topology.NodeID(dst), topology.Invalid, false); len(alt) != 0 {
					t.Fatalf("%s offered detours %v for %d->%d", name, alt, src, dst)
				}
			}
		}
	}
}

// TestNamesSortedAndStable: the registry listing is sorted and identical
// across calls, so -ftroute sweep tables and reports keyed by it are
// deterministic.
func TestNamesSortedAndStable(t *testing.T) {
	a, b := Names(), Names()
	if !sort.StringsAreSorted(a) {
		t.Fatalf("Names() not sorted: %v", a)
	}
	if len(a) != len(b) {
		t.Fatalf("Names() length varies: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Names() differs across calls at %d: %q vs %q", i, a[i], b[i])
		}
	}
	// Mutating one call's result must not leak into the registry.
	a[0] = "mutated"
	if c := Names(); c[0] == "mutated" {
		t.Fatal("Names() exposes shared backing storage")
	}
}

// referenceFaultCandidates is FaultCandidates as it was before the append
// form existed — every candidate set a fresh slice from Algorithm.Candidates,
// the look-ahead recursing over fresh slices — and with no shortcut: the
// full filter runs at every router, whether or not it sees a fault. It is
// kept as the oracle for AppendFaultCandidates and for the blind-router
// shortcut. It is given the wrapper's configuration — base algorithm,
// health view and policy — and counts in its own counters.
type referenceFaultAware struct {
	base              Algorithm
	health            *fault.Health
	pol               fault.RoutingPolicy
	masked, misroutes int64
}

func (r *referenceFaultAware) candidates(current, dest topology.NodeID, in topology.Direction, inWrap bool, misrouted int) ([]topology.Direction, bool) {
	base := r.base.Candidates(current, dest, in, inWrap)
	if len(base) == 0 {
		return base, false
	}
	var keep []topology.Direction
	khop := r.health.Visibility() == fault.VisibilityKHop
	for _, d := range base {
		if r.health.Faulted(current, d) {
			continue
		}
		if khop && r.deadWithin(current, dest, current, d, r.health.Radius()) {
			continue
		}
		keep = append(keep, d)
	}
	if len(keep) > 0 {
		if len(keep) < len(base) {
			r.masked++
		}
		return keep, false
	}
	if mis, ok := r.base.(Misrouter); ok && misrouted < r.pol.MisrouteLimit {
		var alt []topology.Direction
		for _, d := range mis.MisrouteCandidates(current, dest, in, inWrap) {
			if !r.health.Faulted(current, d) {
				alt = append(alt, d)
			}
		}
		if len(alt) > 0 {
			r.masked++
			r.misroutes++
			return alt, true
		}
	}
	return base, false
}

func (r *referenceFaultAware) deadWithin(origin, dest, node topology.NodeID, d topology.Direction, depth int) bool {
	topo := r.base.Topology()
	if depth <= 0 {
		return false
	}
	nb, ok := topo.Neighbor(node, d)
	if !ok || nb == dest {
		return false
	}
	cands := r.base.Candidates(nb, dest, d, topo.Wraparound(node, d))
	if len(cands) == 0 {
		return false
	}
	for _, nd := range cands {
		if r.health.Known(origin, nb, nd) {
			continue
		}
		if !r.deadWithin(origin, dest, nb, nd, depth-1) {
			return false
		}
	}
	return true
}

// TestAppendFaultCandidatesMatchesReference holds the append form to the
// allocating one it replaced, for every registered algorithm — those with an
// allocation-free base path and the turn-rule ones without — on mesh, torus
// and hypercube, under local and k-hop visibility, over every (router,
// destination, arrival direction) of random fault sets: the same directions
// in the same order after the caller's prefix, the same misroute flag, the
// same masked and misroute counts, the prefix untouched, and a result that a
// later decision — which reuses the look-ahead stack — does not disturb.
func TestAppendFaultCandidatesMatchesReference(t *testing.T) {
	topos := []topology.Topology{
		topology.NewMesh2D(5, 4),
		topology.NewTorus(4, 4),
		topology.NewHypercube(4),
	}
	policies := []fault.RoutingPolicy{
		{Visibility: fault.VisibilityLocal, MisrouteLimit: 2},
		{Visibility: fault.VisibilityKHop, Radius: 3, MisrouteLimit: 2},
	}
	rng := rand.New(rand.NewSource(1805))
	prefix := []topology.Direction{topology.North, topology.West}
	decisions, maskedSeen, misSeen, fallbacks := 0, int64(0), int64(0), 0
	for _, topo := range topos {
		for _, name := range Names() {
			alg, err := New(name, topo)
			if err != nil {
				continue
			}
			if _, ok := alg.(CandidateAppender); !ok {
				fallbacks++
			}
			for _, pol := range policies {
				plan := randomFaultPlan(rng, topo, 6)
				_, health := newHealthState(t, topo, plan, pol)
				fa := NewFaultAware(alg, health, pol)
				ref := &referenceFaultAware{base: alg, health: health, pol: pol}
				var held []topology.Direction // the previous decision's result
				var heldWant []topology.Direction
				// Every state a packet can be in: injected anywhere, then
				// wherever the masked relation leads (the turn-rule
				// algorithms reject states their rule cannot reach).
				type state struct {
					node topology.NodeID
					in   topology.Direction
				}
				for dst := topology.NodeID(0); int(dst) < topo.Nodes(); dst++ {
					seen := make(map[state]bool)
					var queue []state
					for src := topology.NodeID(0); int(src) < topo.Nodes(); src++ {
						if src != dst {
							queue = append(queue, state{src, topology.Invalid})
						}
					}
					for len(queue) > 0 {
						st := queue[0]
						queue = queue[1:]
						if seen[st] {
							continue
						}
						seen[st] = true
						cur, in, inWrap := st.node, st.in, false
						if in != topology.Invalid {
							prev, _ := topo.Neighbor(cur, in.Opposite())
							inWrap = topo.Wraparound(prev, in)
						}
						misrouted := rng.Intn(3)
						want, wantMis := ref.candidates(cur, dst, in, inWrap, misrouted)
						buf := append(make([]topology.Direction, 0, 16), prefix...)
						got, gotMis := fa.AppendFaultCandidates(buf, cur, dst, in, inWrap, misrouted)
						decisions++
						if gotMis != wantMis || !equalDirs(got[len(prefix):], want) || !equalDirs(got[:len(prefix)], prefix) {
							t.Fatalf("%s on %s, %s, faults %+v: at %d for %d arriving %v (misrouted %d) got %v misroute=%v, want prefix %v then %v misroute=%v",
								name, topo.Name(), pol, plan, cur, dst, in, misrouted, got, gotMis, prefix, want, wantMis)
						}
						if !equalDirs(held, heldWant) {
							t.Fatalf("%s on %s: the decision at %d for %d overwrote the previous decision's result", name, topo.Name(), cur, dst)
						}
						held, heldWant = got, append(prefix[:len(prefix):len(prefix)], want...)
						for _, d := range want {
							if health.Faulted(cur, d) {
								continue
							}
							if nb, ok := topo.Neighbor(cur, d); ok && nb != dst {
								queue = append(queue, state{nb, d})
							}
						}
					}
				}
				if fa.MaskedDecisions() != ref.masked || fa.MisrouteDecisions() != ref.misroutes {
					t.Fatalf("%s on %s, %s: counted masked=%d misroutes=%d, the reference %d and %d",
						name, topo.Name(), pol, fa.MaskedDecisions(), fa.MisrouteDecisions(), ref.masked, ref.misroutes)
				}
				maskedSeen += ref.masked
				misSeen += ref.misroutes
			}
		}
	}
	if decisions < 10000 || maskedSeen == 0 || misSeen == 0 || fallbacks == 0 {
		t.Fatalf("%d decisions, %d masked, %d misrouted, %d algorithms without AppendCandidates: the case no longer covers the ladder",
			decisions, maskedSeen, misSeen, fallbacks)
	}
}

// TestFaultCandidatesBlindShortcut holds the wrapper's shortcut — a router
// that sees no broken channel gets the base candidates untouched — to the
// full filter it skips: for every registered algorithm on mesh, torus and
// hypercube, under local and k-hop visibility at radius 1 to 3, at every
// (router, destination, arrival direction) and with the misroute budget
// whole and spent, the same directions, the same misroute flag and the same
// change to both counters. States a turn-rule algorithm's rule cannot reach
// (its base relation panics there) are skipped.
func TestFaultCandidatesBlindShortcut(t *testing.T) {
	topos := []topology.Topology{
		topology.NewMesh2D(7, 6),
		topology.NewTorus(5, 5),
		topology.NewHypercube(5),
	}
	rng := rand.New(rand.NewSource(4141))
	blind, seeing, maskedSeen := 0, 0, int64(0)
	for _, topo := range topos {
		for _, name := range Names() {
			alg, err := New(name, topo)
			if err != nil {
				continue
			}
			for _, pol := range []fault.RoutingPolicy{
				{Visibility: fault.VisibilityLocal, MisrouteLimit: 2},
				{Visibility: fault.VisibilityKHop, Radius: 1 + rng.Intn(3), MisrouteLimit: 2},
			} {
				plan := randomFaultPlan(rng, topo, 2)
				_, health := newHealthState(t, topo, plan, pol)
				fa := NewFaultAware(alg, health, pol)
				ref := &referenceFaultAware{base: alg, health: health, pol: pol}
				for cur := topology.NodeID(0); int(cur) < topo.Nodes(); cur++ {
					for dst := topology.NodeID(0); int(dst) < topo.Nodes(); dst++ {
						if cur == dst {
							continue
						}
						for in := topology.Invalid; int(in) < 2*topo.Dims(); in++ {
							inWrap := false
							if in != topology.Invalid {
								prev, ok := topo.Neighbor(cur, in.Opposite())
								if !ok {
									continue
								}
								inWrap = topo.Wraparound(prev, in)
							}
							for _, misrouted := range []int{0, pol.MisrouteLimit} {
								m0, r0 := ref.masked, ref.misroutes
								want, wantMis, ok := referenceOrSkip(ref, cur, dst, in, inWrap, misrouted)
								if !ok {
									continue
								}
								g0, h0 := fa.MaskedDecisions(), fa.MisrouteDecisions()
								got, gotMis := fa.FaultCandidates(cur, dst, in, inWrap, misrouted)
								if gotMis != wantMis || !equalDirs(got, want) ||
									fa.MaskedDecisions()-g0 != ref.masked-m0 || fa.MisrouteDecisions()-h0 != ref.misroutes-r0 {
									t.Fatalf("%s on %s, %s, faults %+v: at %d (sees %v) for %d arriving %v (misrouted %d): got %v misroute=%v, the full filter %v misroute=%v",
										name, topo.Name(), pol, plan, cur, health.Sees(cur), dst, in, misrouted, got, gotMis, want, wantMis)
								}
								if health.Sees(cur) {
									seeing++
								} else {
									blind++
								}
							}
						}
					}
				}
				maskedSeen += ref.masked
			}
		}
	}
	if blind < 10000 || seeing < 10000 || maskedSeen == 0 {
		t.Fatalf("%d blind and %d seeing decisions, %d masked: the case no longer covers both sides of the shortcut", blind, seeing, maskedSeen)
	}
}

// referenceOrSkip runs the full filter, reporting false if the base
// relation panicked because the state is one its rule never reaches.
func referenceOrSkip(ref *referenceFaultAware, cur, dst topology.NodeID, in topology.Direction, inWrap bool, misrouted int) (dirs []topology.Direction, mis, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	dirs, mis = ref.candidates(cur, dst, in, inWrap, misrouted)
	return dirs, mis, true
}

func equalDirs(a, b []topology.Direction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAppendFaultCandidatesZeroAllocs pins what the append form is for: with
// faults active and the k-hop look-ahead running, a masked decision of an
// algorithm that implements CandidateAppender allocates nothing.
func TestAppendFaultCandidatesZeroAllocs(t *testing.T) {
	mesh := topology.NewMesh2D(8, 8)
	alg, err := New("negative-first", mesh)
	if err != nil {
		t.Fatal(err)
	}
	pol := fault.RoutingPolicy{Visibility: fault.VisibilityKHop, Radius: 3, MisrouteLimit: 2}
	plan := fault.Plan{Static: []topology.Channel{{From: 27, Dir: topology.West}, {From: 20, Dir: topology.South}}}
	_, health := newHealthState(t, mesh, plan, pol)
	fa := NewFaultAware(alg, health, pol)
	var buf [8]topology.Direction
	decide := func() {
		for cur := topology.NodeID(0); cur < 64; cur++ {
			fa.AppendFaultCandidates(buf[:0], cur, 0, topology.Invalid, false, pol.MisrouteLimit)
		}
	}
	decide() // grows the look-ahead stack to its depth
	if fa.MaskedDecisions() == 0 {
		t.Fatal("no decision was masked; the case does not reach the filter")
	}
	if allocs := testing.AllocsPerRun(20, decide); allocs != 0 {
		t.Errorf("%v allocations per 64 decisions, want 0", allocs)
	}
}
