package vc

import (
	"math/rand"
	"testing"

	"turnmodel/internal/fault"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/turnmodel"
)

// vcWrapper builds the wrapper for alg on the fault plan, and the reference
// ladder over the same algorithm, health view and policy.
func vcWrapper(t *testing.T, alg Algorithm, plan fault.Plan, pol fault.RoutingPolicy) (*FaultAware, *referenceFaultAware) {
	t.Helper()
	topo := alg.Topology()
	if err := fault.Validate(topo, plan); err != nil {
		t.Fatalf("bad plan: %v", err)
	}
	health := fault.NewHealth(topo, fault.MustNew(plan, topo), pol)
	return NewFaultAware(alg, health, pol), &referenceFaultAware{base: alg, health: health, pol: pol}
}

// TestVCFaultAwareFiltersBrokenPhysicalChannel: a fault takes down every
// virtual channel on the physical link, and the wrapper keeps the live
// alternative.
func TestVCFaultAwareFiltersBrokenPhysicalChannel(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	alg := DoubleY(mesh)
	pol := fault.RoutingPolicy{Visibility: fault.VisibilityLocal}
	// 5 -> 0: double-y offers west and south; break 5:west.
	fa, _ := vcWrapper(t, alg, fault.Plan{Static: []topology.Channel{{From: 5, Dir: topology.West}}}, pol)
	got, mis := fa.FaultCandidates(5, 0, topology.Invalid, 0, 0)
	if mis {
		t.Fatal("filtered decision flagged as misroute")
	}
	if len(got) == 0 {
		t.Fatal("candidate set emptied")
	}
	for _, o := range got {
		if o.Dir == topology.West {
			t.Fatalf("dead west survived the filter: %v", got)
		}
	}
	if fa.MaskedDecisions() != 1 {
		t.Errorf("MaskedDecisions = %d, want 1", fa.MaskedDecisions())
	}
}

// TestVCFaultAwareNeverEmptiesNativeScheme: the native VC schemes do not
// implement Misrouter, so when every candidate is dead the wrapper falls
// through to the unfiltered base set and the packet stalls into recovery.
func TestVCFaultAwareNeverEmptiesNativeScheme(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	alg := DoubleY(mesh)
	if _, ok := Algorithm(alg).(Misrouter); ok {
		t.Fatal("double-y unexpectedly implements Misrouter")
	}
	pol := fault.RoutingPolicy{Visibility: fault.VisibilityLocal, MisrouteLimit: 4}
	fa, _ := vcWrapper(t, alg, fault.Plan{Static: []topology.Channel{
		{From: 5, Dir: topology.West},
		{From: 5, Dir: topology.South},
	}}, pol)
	base := alg.Candidates(5, 0, topology.Invalid, 0)
	got, mis := fa.FaultCandidates(5, 0, topology.Invalid, 0, 0)
	if mis {
		t.Fatal("native scheme produced a misroute set")
	}
	if len(got) != len(base) {
		t.Fatalf("got %v, want the unfiltered base %v", got, base)
	}
}

// TestVCLiftedMisrouteInheritsPhysicalDetours: a lifted phased algorithm
// exposes its inner algorithm's safe detours on the single lifted VC.
func TestVCLiftedMisrouteInheritsPhysicalDetours(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	inner, err := routing.New("negative-first", mesh)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := New("negative-first", mesh)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := alg.(Misrouter)
	if !ok {
		t.Fatal("lifted negative-first does not implement Misrouter")
	}
	// 5 -> 4: only west productive; the physical detour set is [south].
	want := inner.(routing.Misrouter).MisrouteCandidates(5, 4, topology.Invalid, false)
	got := m.MisrouteCandidates(5, 4, topology.Invalid, 0)
	if len(got) != len(want) {
		t.Fatalf("lifted detours %v, physical %v", got, want)
	}
	for i, o := range got {
		if o.Dir != want[i] || o.VC != 0 {
			t.Fatalf("lifted detours %v, want %v on VC 0", got, want)
		}
	}

	pol := fault.RoutingPolicy{Visibility: fault.VisibilityLocal, MisrouteLimit: 2}
	fa, _ := vcWrapper(t, alg, fault.Plan{Static: []topology.Channel{{From: 5, Dir: topology.West}}}, pol)
	outs, mis := fa.FaultCandidates(5, 4, topology.Invalid, 0, 0)
	if !mis {
		t.Fatalf("expected a misroute set, got %v", outs)
	}
	if len(outs) != 1 || outs[0].Dir != topology.South {
		t.Fatalf("misroute set = %v, want [south]", outs)
	}
	// Budget spent: the stalled base set comes back.
	outs, mis = fa.FaultCandidates(5, 4, topology.Invalid, 0, pol.MisrouteLimit)
	if mis || len(outs) != 1 || outs[0].Dir != topology.West {
		t.Fatalf("exhausted budget returned %v (mis=%v), want the dead [west]", outs, mis)
	}
}

// TestVCFaultAwarePassthroughWhenHealthy pins the fast path at the VC
// level: no active faults, base candidates untouched.
func TestVCFaultAwarePassthroughWhenHealthy(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	alg := DoubleY(mesh)
	pol := fault.RoutingPolicy{Visibility: fault.VisibilityKHop, MisrouteLimit: 4}
	fa, _ := vcWrapper(t, alg, fault.Plan{Rate: 1e-9, Seed: 1}, pol)
	for src := 0; src < mesh.Nodes(); src++ {
		for dst := 0; dst < mesh.Nodes(); dst++ {
			if src == dst {
				continue
			}
			want := alg.Candidates(topology.NodeID(src), topology.NodeID(dst), topology.Invalid, 0)
			got, mis := fa.FaultCandidates(topology.NodeID(src), topology.NodeID(dst), topology.Invalid, 0, 0)
			if mis || len(got) != len(want) {
				t.Fatalf("%d->%d: got %v (mis=%v), want %v", src, dst, got, mis, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%d->%d: got %v, want %v", src, dst, got, want)
				}
			}
		}
	}
	if fa.MaskedDecisions() != 0 {
		t.Errorf("healthy network counted %d masked decisions", fa.MaskedDecisions())
	}
}

// TestVCFaultedCDGDeadlockFreeRandomFaults is the virtual-channel wrapper's
// safety property, checked the way the physical one is: for the native
// schemes (double-y, dateline dimension-order, the cube-connected-cycles
// scheme) and lifted turn-model algorithms, the virtual-channel dependency
// graph of the faulted configuration under the masking/misroute relation,
// restricted to the surviving channels, stays acyclic — at 1, 3 and 7
// broken channels, under local and k-hop visibility, with and without the
// misroute budget. The fault sets are random but seeded.
func TestVCFaultedCDGDeadlockFreeRandomFaults(t *testing.T) {
	mesh := topology.NewMesh2D(5, 5)
	var algs []Algorithm
	for _, c := range []struct {
		name string
		topo topology.Topology
	}{
		{"double-y", mesh},
		{"dateline-dor", topology.NewTorus(4, 4)},
		{"dateline-dor", topology.NewTorus(5, 5)},
		{"ccc-ascending", topology.NewCCC(3)},
		{"negative-first", mesh},
		{"west-first", mesh},
		{"negative-first", topology.NewHypercube(4)},
	} {
		alg, err := New(c.name, c.topo)
		if err != nil {
			t.Fatal(err)
		}
		if cyc := FromRouting(alg).FindVCCycle(); cyc != nil {
			t.Fatalf("%s on %s is cyclic fault free: %v", alg.Name(), c.topo.Name(), cyc)
		}
		algs = append(algs, alg)
	}
	policies := []fault.RoutingPolicy{
		{Visibility: fault.VisibilityLocal},
		{Visibility: fault.VisibilityKHop, MisrouteLimit: 4},
		{Visibility: fault.VisibilityKHop, Radius: 3, MisrouteLimit: 1},
	}
	rng := rand.New(rand.NewSource(20261019))
	checked, masked, misrouted := 0, int64(0), int64(0)
	for _, alg := range algs {
		topo := alg.Topology()
		chans := topo.Channels()
		for _, density := range []int{1, 3, 7} {
			for trial := 0; trial < 3; trial++ {
				var plan fault.Plan
				for _, i := range rng.Perm(len(chans))[:density] {
					plan.Static = append(plan.Static, chans[i])
				}
				state := fault.MustNew(plan, topo)
				faulted := func(from topology.NodeID, dir topology.Direction) bool {
					return state.Faulted[int(from)*2*topo.Dims()+int(dir)]
				}
				for _, pol := range policies {
					fa := NewFaultAware(alg, fault.NewHealth(topo, state, pol), pol)
					g := turnmodel.FromRoutingVC(topo, fa.VCs, Relation(fa), faulted)
					if cyc := g.FindVCCycle(); cyc != nil {
						t.Errorf("%s on %s, faults %+v, policy %s: dependency cycle %v",
							alg.Name(), topo.Name(), plan, pol.WithDefaults(), cyc)
					}
					checked++
					masked += fa.MaskedDecisions()
					misrouted += fa.MisrouteDecisions()
				}
			}
		}
	}
	if checked != 189 || masked == 0 || misrouted == 0 {
		t.Fatalf("%d configurations, %d masked and %d misrouted decisions: the case no longer covers the ladder", checked, masked, misrouted)
	}
}

// referenceFaultAware is FaultCandidates as it was before the append form
// existed — every candidate set a fresh slice from Algorithm.Candidates,
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

func (r *referenceFaultAware) candidates(current, dest topology.NodeID, inDir topology.Direction, inVC, misrouted int) ([]Out, bool) {
	base := r.base.Candidates(current, dest, inDir, inVC)
	if len(base) == 0 {
		return base, false
	}
	var keep []Out
	khop := r.health.Visibility() == fault.VisibilityKHop
	for _, o := range base {
		if r.health.Faulted(current, o.Dir) {
			continue
		}
		if khop && r.deadWithin(current, dest, current, o, r.health.Radius()) {
			continue
		}
		keep = append(keep, o)
	}
	if len(keep) > 0 {
		if len(keep) < len(base) {
			r.masked++
		}
		return keep, false
	}
	if mis, ok := r.base.(Misrouter); ok && misrouted < r.pol.MisrouteLimit {
		var alt []Out
		for _, o := range mis.MisrouteCandidates(current, dest, inDir, inVC) {
			if !r.health.Faulted(current, o.Dir) {
				alt = append(alt, o)
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

func (r *referenceFaultAware) deadWithin(origin, dest, node topology.NodeID, o Out, depth int) bool {
	if depth <= 0 {
		return false
	}
	nb, ok := r.base.Topology().Neighbor(node, o.Dir)
	if !ok || nb == dest {
		return false
	}
	cands := r.base.Candidates(nb, dest, o.Dir, o.VC)
	if len(cands) == 0 {
		return false
	}
	for _, no := range cands {
		if r.health.Known(origin, nb, no.Dir) {
			continue
		}
		if !r.deadWithin(origin, dest, nb, no, depth-1) {
			return false
		}
	}
	return true
}

// TestFaultCandidatesBlindShortcut holds the wrapper's shortcut — a router
// that sees no broken channel gets the base outputs untouched — to the full
// filter it skips: for the native schemes, a lifted algorithm that misroutes
// and the cube-connected-cycles scheme, under local and k-hop visibility at
// radius 1 to 3, at every (router, destination, arrival direction, arrival
// virtual channel) and with the misroute budget whole and spent, the same
// outputs, the same misroute flag and the same change to both counters.
func TestFaultCandidatesBlindShortcut(t *testing.T) {
	mesh := topology.NewMesh2D(7, 6)
	lifted, err := New("negative-first", mesh)
	if err != nil {
		t.Fatal(err)
	}
	algs := []Algorithm{
		DoubleY(mesh),
		DatelineDOR(topology.NewKaryNCube(5, 2)),
		lifted,
		NewCCCAscending(topology.NewCCC(4)),
	}
	rng := rand.New(rand.NewSource(4142))
	blind, seeing, maskedSeen := 0, 0, int64(0)
	for _, alg := range algs {
		topo := alg.Topology()
		for radius := 0; radius <= 3; radius++ {
			pol := fault.RoutingPolicy{Visibility: fault.VisibilityLocal, MisrouteLimit: 2}
			if radius > 0 {
				pol = fault.RoutingPolicy{Visibility: fault.VisibilityKHop, Radius: radius, MisrouteLimit: 2}
			}
			chans := topo.Channels()
			plan := fault.Plan{Static: []topology.Channel{chans[rng.Intn(len(chans))], chans[rng.Intn(len(chans))]}}
			fa, ref := vcWrapper(t, alg, plan, pol)
			for cur := topology.NodeID(0); int(cur) < topo.Nodes(); cur++ {
				for dst := topology.NodeID(0); int(dst) < topo.Nodes(); dst++ {
					if cur == dst {
						continue
					}
					for in := topology.Invalid; int(in) < 2*topo.Dims(); in++ {
						vcs := 1
						if in != topology.Invalid {
							if _, ok := topo.Neighbor(cur, in.Opposite()); !ok {
								continue
							}
							vcs = alg.VCs(in)
						}
						for inVC := 0; inVC < vcs; inVC++ {
							for _, misrouted := range []int{0, pol.MisrouteLimit} {
								m0, r0 := ref.masked, ref.misroutes
								g0, h0 := fa.MaskedDecisions(), fa.MisrouteDecisions()
								want, wantMis := ref.candidates(cur, dst, in, inVC, misrouted)
								got, gotMis := fa.FaultCandidates(cur, dst, in, inVC, misrouted)
								if gotMis != wantMis || !equalOuts(got, want) ||
									fa.MaskedDecisions()-g0 != ref.masked-m0 || fa.MisrouteDecisions()-h0 != ref.misroutes-r0 {
									t.Fatalf("%s, %s, faults %+v: at %d (sees %v) for %d arriving %v/vc%d (misrouted %d): got %v misroute=%v, the full filter %v misroute=%v",
										alg.Name(), pol, plan, cur, ref.health.Sees(cur), dst, in, inVC, misrouted, got, gotMis, want, wantMis)
								}
								if ref.health.Sees(cur) {
									seeing++
								} else {
									blind++
								}
							}
						}
					}
				}
			}
			maskedSeen += ref.masked
		}
	}
	if blind < 10000 || seeing < 10000 || maskedSeen == 0 {
		t.Fatalf("%d blind and %d seeing decisions, %d masked: the case no longer covers both sides of the shortcut", blind, seeing, maskedSeen)
	}
}

func equalOuts(a, b []Out) bool {
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

// TestVCAppendFaultCandidatesMatchesReference holds the append form to the
// allocating one it replaced, for the native schemes (double-y, dateline),
// a lifted algorithm that misroutes, and the cube-connected-cycles scheme,
// which has no allocation-free base path, under local and k-hop visibility,
// over every (router, destination, arrival channel) the masked relation
// reaches on random fault sets: the same outputs in the same order after the
// caller's prefix, the same misroute flag, the same masked and misroute
// counts, the prefix untouched, and a result that a later decision — which
// reuses the look-ahead stack — does not disturb.
func TestVCAppendFaultCandidatesMatchesReference(t *testing.T) {
	mesh := topology.NewMesh2D(5, 4)
	lifted, err := New("negative-first", mesh)
	if err != nil {
		t.Fatal(err)
	}
	algs := []Algorithm{
		DoubleY(mesh),
		DatelineDOR(topology.NewKaryNCube(4, 2)),
		lifted,
		NewCCCAscending(topology.NewCCC(3)),
	}
	policies := []fault.RoutingPolicy{
		{Visibility: fault.VisibilityLocal, MisrouteLimit: 2},
		{Visibility: fault.VisibilityKHop, Radius: 3, MisrouteLimit: 2},
	}
	rng := rand.New(rand.NewSource(3017))
	prefix := []Out{{topology.North, 1}, {topology.West, 0}}
	decisions, maskedSeen, misSeen, fallbacks := 0, int64(0), int64(0), 0
	for _, alg := range algs {
		topo := alg.Topology()
		if _, ok := alg.(CandidateAppender); !ok {
			fallbacks++
		}
		for _, pol := range policies {
			chans := topo.Channels()
			var plan fault.Plan
			for len(plan.Static) < 6 {
				plan.Static = append(plan.Static, chans[rng.Intn(len(chans))])
			}
			fa, ref := vcWrapper(t, alg, plan, pol)
			var held, heldWant []Out // the previous decision's result
			type state struct {
				node topology.NodeID
				in   topology.Direction
				vc   int
			}
			for dst := topology.NodeID(0); int(dst) < topo.Nodes(); dst++ {
				seen := make(map[state]bool)
				var queue []state
				for src := topology.NodeID(0); int(src) < topo.Nodes(); src++ {
					if src != dst {
						queue = append(queue, state{src, topology.Invalid, 0})
					}
				}
				for len(queue) > 0 {
					st := queue[0]
					queue = queue[1:]
					if seen[st] {
						continue
					}
					seen[st] = true
					misrouted := rng.Intn(3)
					want, wantMis := ref.candidates(st.node, dst, st.in, st.vc, misrouted)
					buf := append(make([]Out, 0, 16), prefix...)
					got, gotMis := fa.AppendFaultCandidates(buf, st.node, dst, st.in, st.vc, misrouted)
					decisions++
					if gotMis != wantMis || !equalOuts(got[len(prefix):], want) || !equalOuts(got[:len(prefix)], prefix) {
						t.Fatalf("%s, %s, faults %+v: at %d for %d arriving %v/vc%d (misrouted %d) got %v misroute=%v, want prefix %v then %v misroute=%v",
							alg.Name(), pol, plan, st.node, dst, st.in, st.vc, misrouted, got, gotMis, prefix, want, wantMis)
					}
					if !equalOuts(held, heldWant) {
						t.Fatalf("%s: the decision at %d for %d overwrote the previous decision's result", alg.Name(), st.node, dst)
					}
					held, heldWant = got, append(prefix[:len(prefix):len(prefix)], want...)
					for _, o := range want {
						if ref.health.Faulted(st.node, o.Dir) {
							continue
						}
						if nb, ok := topo.Neighbor(st.node, o.Dir); ok && nb != dst {
							queue = append(queue, state{nb, o.Dir, o.VC})
						}
					}
				}
			}
			if fa.MaskedDecisions() != ref.masked || fa.MisrouteDecisions() != ref.misroutes {
				t.Fatalf("%s, %s: counted masked=%d misroutes=%d, the reference %d and %d",
					alg.Name(), pol, fa.MaskedDecisions(), fa.MisrouteDecisions(), ref.masked, ref.misroutes)
			}
			maskedSeen += ref.masked
			misSeen += ref.misroutes
		}
	}
	if decisions < 2000 || maskedSeen == 0 || misSeen == 0 || fallbacks == 0 {
		t.Fatalf("%d decisions, %d masked, %d misrouted, %d algorithms without AppendCandidates: the case no longer covers the ladder",
			decisions, maskedSeen, misSeen, fallbacks)
	}
}

// TestVCAppendFaultCandidatesZeroAllocs pins what the append form is for:
// with faults active and the k-hop look-ahead running, a masked decision of
// an algorithm that implements CandidateAppender allocates nothing.
func TestVCAppendFaultCandidatesZeroAllocs(t *testing.T) {
	for _, name := range []string{"double-y", "negative-first"} {
		mesh := topology.NewMesh2D(8, 8)
		alg, err := New(name, mesh)
		if err != nil {
			t.Fatal(err)
		}
		pol := fault.RoutingPolicy{Visibility: fault.VisibilityKHop, Radius: 3}
		fa, _ := vcWrapper(t, alg, fault.Plan{Static: []topology.Channel{{From: 27, Dir: topology.West}, {From: 20, Dir: topology.South}}}, pol)
		var buf [8]Out
		decide := func() {
			for cur := topology.NodeID(1); cur < 64; cur++ {
				fa.AppendFaultCandidates(buf[:0], cur, 0, topology.Invalid, 0, 0)
			}
		}
		decide() // grows the look-ahead stack and the direction scratch
		if fa.MaskedDecisions() == 0 {
			t.Fatalf("%s: no decision was masked; the case does not reach the filter", name)
		}
		if allocs := testing.AllocsPerRun(20, decide); allocs != 0 {
			t.Errorf("%s: %v allocations per 63 decisions, want 0", name, allocs)
		}
	}
}
