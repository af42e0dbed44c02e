package fault

import (
	"testing"

	"turnmodel/internal/topology"
)

func TestHealthLocalVisibilityOwnChannelsOnly(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	pol := RoutingPolicy{Visibility: VisibilityLocal}
	s := MustNew(Plan{Static: []topology.Channel{{From: 5, Dir: topology.East}}}, mesh)
	h := NewHealth(mesh, s, pol)
	if s.ActiveFaults() != 1 {
		t.Fatalf("ActiveFaults = %d, want 1", s.ActiveFaults())
	}
	if !h.Sees(5) || h.Sees(4) {
		t.Errorf("Sees(5) = %v, Sees(4) = %v: want only the channel's source to see it", h.Sees(5), h.Sees(4))
	}
	if !h.Faulted(5, topology.East) {
		t.Error("own broken channel not visible")
	}
	if h.Faulted(5, topology.West) {
		t.Error("healthy channel reported broken")
	}
	if !h.Known(5, 5, topology.East) {
		t.Error("router 5 must know its own channel")
	}
	// Neighbor 4 one hop away learns nothing under local visibility.
	if h.Known(4, 5, topology.East) {
		t.Error("local visibility leaked a remote channel")
	}
	if h.Radius() != 0 {
		t.Errorf("Radius = %d under local visibility, want 0", h.Radius())
	}
}

func TestHealthKHopRadiusBoundsKnowledge(t *testing.T) {
	mesh := topology.NewMesh2D(6, 6)
	pol := RoutingPolicy{Visibility: VisibilityKHop, Radius: 2}
	// Channel out of node 14 = (2,2), interior.
	s := MustNew(Plan{Static: []topology.Channel{{From: 14, Dir: topology.East}}}, mesh)
	h := NewHealth(mesh, s, pol)
	for r := 0; r < mesh.Nodes(); r++ {
		id := topology.NodeID(r)
		want := mesh.Distance(id, 14) <= 2
		if got := h.Known(id, 14, topology.East); got != want {
			t.Errorf("router %d (distance %d): Known = %v, want %v", r, mesh.Distance(id, 14), got, want)
		}
	}
}

func TestHealthKHopSnapshotLagsUntilRefresh(t *testing.T) {
	mesh := topology.NewMesh2D(6, 6)
	pol := RoutingPolicy{Visibility: VisibilityKHop, Radius: 2}
	// A rate-driven process: no faults at construction.
	s := MustNew(Plan{Rate: 1e-4, Seed: 11}, mesh)
	h := NewHealth(mesh, s, pol)
	var from topology.NodeID
	var dir topology.Direction
	found := false
	s.OnChange = func(f topology.NodeID, d topology.Direction, failed bool) {
		if failed && !found {
			from, dir, found = f, d, true
		}
	}
	for c := int64(0); c < 100000 && !found; c++ {
		s.Advance(c)
	}
	if !found {
		t.Fatal("no fault in 100000 cycles at rate 1e-4")
	}
	// The source of the channel sees it live, snapshot or not.
	if !h.Known(from, from, dir) {
		t.Fatal("source router blind to its own broken channel")
	}
	// A neighbor within the radius only learns it after dissemination.
	nb, ok := mesh.Neighbor(from, dir)
	if !ok {
		t.Fatal("broken channel has no neighbor")
	}
	remote := nb
	if remote == from {
		t.Fatal("degenerate channel")
	}
	if h.Known(remote, from, dir) {
		t.Fatal("remote router learned the fault before Refresh")
	}
	h.Refresh()
	if !h.Known(remote, from, dir) {
		t.Fatal("remote router within radius still blind after Refresh")
	}
}

// TestHealthViewMatchesKnown holds the per-router view to its definition:
// over random fault histories — breaks and repairs of a Bernoulli process on
// top of static and node faults — on mesh, torus, hypercube, hexagonal mesh
// and cube-connected cycles, under local visibility and k-hop at radius 1 to
// 3, after every change of the fault epoch, Sees(r) holds exactly when some
// Known(r, from, dir) does. One Health is reset from each configuration into
// the next, so a view a reset forgot to clear shows too.
func TestHealthViewMatchesKnown(t *testing.T) {
	topos := []topology.Topology{
		topology.NewMesh2D(6, 5),
		topology.NewTorus(5, 4),
		topology.NewHypercube(5),
		topology.NewHex(4, 4),
		topology.NewCCC(3),
	}
	policies := []RoutingPolicy{
		{Visibility: VisibilityLocal},
		{Visibility: VisibilityKHop, Radius: 1},
		{Visibility: VisibilityKHop, Radius: 2},
		{Visibility: VisibilityKHop, Radius: 3},
	}
	h := new(Health)
	checks, seen, blind := 0, 0, 0
	for ti, topo := range topos {
		dims2 := 2 * topo.Dims()
		for pi, pol := range policies {
			plan := Plan{Rate: 2e-3, Repair: 60, Seed: int64(10*ti + pi + 1)}
			if pi%2 == 0 {
				plan.Nodes = []topology.NodeID{topology.NodeID(pi * 3 % topo.Nodes())}
			}
			s := MustNew(plan, topo)
			h.Reset(topo, s, pol)
			check := func(cycle int64) {
				t.Helper()
				for r := topology.NodeID(0); int(r) < topo.Nodes(); r++ {
					want := false
					for key := 0; key < topo.Nodes()*dims2 && !want; key++ {
						want = h.Known(r, topology.NodeID(key/dims2), topology.Direction(key%dims2))
					}
					if got := h.Sees(r); got != want {
						t.Fatalf("%s, %s, cycle %d, epoch %d: Sees(%d) = %v, but some Known(%d, ·, ·) is %v",
							topo.Name(), pol, cycle, s.Epoch(), r, got, r, want)
					}
					if want {
						seen++
					} else {
						blind++
					}
				}
				checks++
			}
			check(0)
			epoch := s.Epoch()
			for c := int64(0); c < 1500; c++ {
				s.Advance(c)
				h.Refresh()
				if s.Epoch() != epoch {
					epoch = s.Epoch()
					check(c)
				}
			}
		}
	}
	if checks < 200 || seen == 0 || blind == 0 {
		t.Fatalf("%d checks, %d seeing and %d blind routers: the histories do not exercise the view", checks, seen, blind)
	}
}

func TestHealthRefreshQuiescentZeroAlloc(t *testing.T) {
	mesh := topology.NewMesh2D(8, 8)
	pol := RoutingPolicy{Visibility: VisibilityKHop}
	s := MustNew(Plan{Static: []topology.Channel{{From: 9, Dir: topology.East}}}, mesh)
	h := NewHealth(mesh, s, pol)
	h.Refresh()
	if n := testing.AllocsPerRun(200, h.Refresh); n != 0 {
		t.Errorf("quiescent Refresh allocates %.1f/op, want 0", n)
	}
}

func TestNewHealthPanics(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	s := MustNew(Plan{}, mesh)
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanics("nil state", func() { NewHealth(mesh, nil, RoutingPolicy{Visibility: VisibilityLocal}) })
	assertPanics("disabled policy", func() { NewHealth(mesh, s, RoutingPolicy{}) })
}

func TestRoutingPolicyDefaultsAndString(t *testing.T) {
	p := RoutingPolicy{Visibility: VisibilityKHop, MisrouteLimit: -3}.WithDefaults()
	if p.Radius != DefaultRadius {
		t.Errorf("Radius = %d, want DefaultRadius %d", p.Radius, DefaultRadius)
	}
	if p.MisrouteLimit != 0 {
		t.Errorf("negative MisrouteLimit kept: %d", p.MisrouteLimit)
	}
	cases := []struct {
		pol  RoutingPolicy
		want string
	}{
		{RoutingPolicy{}, "off"},
		{RoutingPolicy{Visibility: VisibilityLocal}, "local"},
		{RoutingPolicy{Visibility: VisibilityKHop, Radius: 2}, "khop(r=2)"},
		{RoutingPolicy{Visibility: VisibilityKHop, Radius: 3, MisrouteLimit: 4}, "khop(r=3)+misroute4"},
	}
	for _, tc := range cases {
		if got := tc.pol.String(); got != tc.want {
			t.Errorf("String(%+v) = %q, want %q", tc.pol, got, tc.want)
		}
	}
	if (RoutingPolicy{}).Enabled() {
		t.Error("zero policy reports enabled")
	}
}

func TestParseVisibility(t *testing.T) {
	for s, want := range map[string]Visibility{"off": VisibilityOff, "local": VisibilityLocal, "khop": VisibilityKHop} {
		got, err := ParseVisibility(s)
		if err != nil || got != want {
			t.Errorf("ParseVisibility(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParseVisibility("khop2"); err == nil {
		t.Error("ParseVisibility accepted khop2 (radius syntax belongs to the CLI)")
	}
}

// TestBackoffEdgeCases hardens Recovery.Backoff at the boundaries: the
// zeroth and first attempts, a base equal to the cap, and attempt counts
// large enough to overflow a naive repeated doubling.
func TestBackoffEdgeCases(t *testing.T) {
	r := Recovery{Enabled: true, BackoffBase: 16, BackoffCap: 1024}
	if got := r.Backoff(0); got != 16 {
		t.Errorf("Backoff(0) = %d, want base 16", got)
	}
	if got := r.Backoff(1); got != 16 {
		t.Errorf("Backoff(1) = %d, want base 16", got)
	}
	if got := r.Backoff(2); got != 32 {
		t.Errorf("Backoff(2) = %d, want 32", got)
	}
	eq := Recovery{Enabled: true, BackoffBase: 64, BackoffCap: 64}
	for _, attempt := range []int{1, 2, 5} {
		if got := eq.Backoff(attempt); got != 64 {
			t.Errorf("base==cap: Backoff(%d) = %d, want 64", attempt, got)
		}
	}
	for _, attempt := range []int{63, 64, 1 << 20, 1<<31 - 1} {
		if got := r.Backoff(attempt); got != 1024 {
			t.Errorf("Backoff(%d) = %d, want cap 1024 (overflow?)", attempt, got)
		}
	}
}
