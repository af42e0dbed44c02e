package fault

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"turnmodel/internal/topology"
)

func TestValidateRejectsBadPlans(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	cases := []struct {
		name string
		plan Plan
	}{
		{"missing channel", Plan{Static: []topology.Channel{
			{From: 0, Dir: topology.West}, // node 0 has no west neighbor
		}}},
		{"invalid direction", Plan{Static: []topology.Channel{
			{From: 0, Dir: topology.Direction(9)},
		}}},
		{"node out of range", Plan{Nodes: []topology.NodeID{16}}},
		{"negative node", Plan{Nodes: []topology.NodeID{-1}}},
		{"rate one", Plan{Rate: 1}},
		{"negative rate", Plan{Rate: -0.5}},
		{"negative repair", Plan{Rate: 0.1, Repair: -1}},
	}
	for _, tc := range cases {
		if err := Validate(mesh, tc.plan); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.plan)
		}
	}
	if err := Validate(mesh, Plan{}); err != nil {
		t.Errorf("empty plan rejected: %v", err)
	}
}

func TestNodeFailureBreaksAllIncidentChannels(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	// Node 5 = (1,1) is interior: 4 outgoing + 4 incoming channels.
	s := MustNew(Plan{Nodes: []topology.NodeID{5}}, mesh)
	dims2 := 2 * mesh.Dims()
	for d := 0; d < dims2; d++ {
		dir := topology.Direction(d)
		if !s.Faulted[5*dims2+d] {
			t.Errorf("outgoing channel 5:%s not faulted", dir)
		}
		nb, ok := mesh.Neighbor(5, dir)
		if !ok {
			t.Fatalf("node 5 missing %s neighbor", dir)
		}
		if !s.Faulted[int(nb)*dims2+int(dir.Opposite())] {
			t.Errorf("incoming channel %d:%s not faulted", nb, dir.Opposite())
		}
	}
	if s.ActiveFaults() != 2*dims2 {
		t.Errorf("ActiveFaults = %d, want %d", s.ActiveFaults(), 2*dims2)
	}
	// Other channels stay up.
	if s.Faulted[0*dims2+int(topology.East)] {
		t.Error("unrelated channel 0:east faulted")
	}
}

func TestRandomProcessIsDeterministic(t *testing.T) {
	mesh := topology.NewMesh2D(8, 8)
	plan := Plan{Rate: 1e-5, Repair: 500, Seed: 42}
	a := MustNew(plan, mesh)
	b := MustNew(plan, mesh)
	for c := int64(0); c < 50000; c++ {
		a.Advance(c)
		b.Advance(c)
		if a.Epoch() != b.Epoch() {
			t.Fatalf("cycle %d: epochs diverge (%d vs %d)", c, a.Epoch(), b.Epoch())
		}
	}
	if a.FailEvents() == 0 {
		t.Fatal("no failures in 50000 cycles at rate 1e-5 over 224 channels")
	}
	if a.FailEvents() != b.FailEvents() || a.ActiveFaults() != b.ActiveFaults() {
		t.Fatalf("streams diverge: %d/%d events, %d/%d active",
			a.FailEvents(), b.FailEvents(), a.ActiveFaults(), b.ActiveFaults())
	}
	for i := range a.Faulted {
		if a.Faulted[i] != b.Faulted[i] {
			t.Fatalf("fault bitmaps diverge at key %d", i)
		}
	}
}

func TestTransientFaultsRepair(t *testing.T) {
	mesh := topology.NewMesh2D(8, 8)
	var fails, repairs int
	s := MustNew(Plan{Rate: 1e-4, Repair: 100, Seed: 7}, mesh)
	s.OnChange = func(from topology.NodeID, dir topology.Direction, failed bool) {
		if failed {
			fails++
		} else {
			repairs++
		}
	}
	for c := int64(0); c < 100000; c++ {
		s.Advance(c)
	}
	if fails == 0 || repairs == 0 {
		t.Fatalf("fails=%d repairs=%d, want both > 0", fails, repairs)
	}
	// Every fault eventually repairs: active faults are only those whose
	// repair is still pending, bounded by fails - repairs.
	if got := fails - repairs; s.ActiveFaults() != got {
		t.Errorf("ActiveFaults = %d, want fails-repairs = %d", s.ActiveFaults(), got)
	}
}

func TestPermanentRandomFaultsNeverRepair(t *testing.T) {
	mesh := topology.NewMesh2D(8, 8)
	s := MustNew(Plan{Rate: 1e-4, Repair: 0, Seed: 7}, mesh)
	s.OnChange = func(_ topology.NodeID, _ topology.Direction, failed bool) {
		if !failed {
			t.Fatal("permanent fault repaired")
		}
	}
	for c := int64(0); c < 100000; c++ {
		s.Advance(c)
	}
	if int64(s.ActiveFaults()) != s.FailEvents() {
		t.Errorf("ActiveFaults = %d, want FailEvents = %d", s.ActiveFaults(), s.FailEvents())
	}
}

func TestRecoveryBackoff(t *testing.T) {
	r := Recovery{Enabled: true}.WithDefaults()
	if r.StallCycles <= 0 || r.BackoffBase <= 0 || r.BackoffCap < r.BackoffBase || r.MaxRetries <= 0 {
		t.Fatalf("bad defaults: %+v", r)
	}
	prev := int64(0)
	for attempt := 1; attempt <= 20; attempt++ {
		d := r.Backoff(attempt)
		if d < prev {
			t.Fatalf("attempt %d: backoff %d shrank from %d", attempt, d, prev)
		}
		if d > r.BackoffCap {
			t.Fatalf("attempt %d: backoff %d above cap %d", attempt, d, r.BackoffCap)
		}
		prev = d
	}
	if r.Backoff(1) != r.BackoffBase {
		t.Errorf("first backoff = %d, want base %d", r.Backoff(1), r.BackoffBase)
	}
	if r.Backoff(20) != r.BackoffCap {
		t.Errorf("late backoff = %d, want cap %d", r.Backoff(20), r.BackoffCap)
	}
}

func TestNextEventCycleEmptyHeap(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	// No random component: nothing is ever scheduled, before or after
	// construction — static and node faults apply at cycle 0 and never
	// transition again.
	for name, plan := range map[string]Plan{
		"empty":  {},
		"static": {Static: []topology.Channel{{From: 5, Dir: topology.East}}},
		"node":   {Nodes: []topology.NodeID{5}},
	} {
		s := MustNew(plan, mesh)
		if got := s.NextEventCycle(); got != math.MaxInt64 {
			t.Errorf("%s plan: NextEventCycle = %d, want MaxInt64 sentinel", name, got)
		}
		s.Advance(10000)
		if got := s.NextEventCycle(); got != math.MaxInt64 {
			t.Errorf("%s plan after Advance: NextEventCycle = %d, want MaxInt64", name, got)
		}
	}
}

func TestNextEventCycleRepairBeforeFailure(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	s := MustNew(Plan{Static: []topology.Channel{{From: 5, Dir: topology.East}}}, mesh)
	// Applying the repair re-arms the channel's failure process, which
	// draws a fresh gap; give the hand-built heap a stream to draw from.
	s.rng = rand.New(rand.NewSource(1))
	s.rate, s.logq = 1e-6, math.Log1p(-1e-6)
	// A pending repair earlier than every pending failure must win the
	// heap: the leap bound is the repair's cycle, not the next failure's.
	s.push(event{cycle: 100, ch: 3, fail: true})
	s.push(event{cycle: 40, ch: 7, fail: false})
	s.push(event{cycle: 70, ch: 9, fail: true})
	if got := s.NextEventCycle(); got != 40 {
		t.Fatalf("NextEventCycle = %d, want the pending repair at 40", got)
	}
	// Advancing short of it applies nothing; advancing to it pops exactly
	// the repair and exposes the next failure.
	epoch := s.Epoch()
	s.Advance(39)
	if s.Epoch() != epoch || s.NextEventCycle() != 40 {
		t.Fatalf("Advance(39) disturbed the heap: next=%d epoch %d->%d", s.NextEventCycle(), epoch, s.Epoch())
	}
	s.Advance(40)
	if got := s.NextEventCycle(); got != 70 {
		t.Fatalf("after the repair, NextEventCycle = %d, want the failure at 70", got)
	}
}

func TestNextEventCycleIsALowerBound(t *testing.T) {
	mesh := topology.NewMesh2D(8, 8)
	s := MustNew(Plan{Rate: 1e-4, Repair: 100, Seed: 7}, mesh)
	transitions := 0
	s.OnChange = func(topology.NodeID, topology.Direction, bool) { transitions++ }
	// Leap-style driving: jump straight from event to event. No transition
	// may ever land before the reported bound, and advancing exactly to the
	// bound must apply at least one event (the random process never marks
	// channels permanent, so no event here is a no-op).
	for c := int64(0); c < 100000; {
		next := s.NextEventCycle()
		if next <= c {
			t.Fatalf("cycle %d: NextEventCycle %d not in the future", c, next)
		}
		before := transitions
		s.Advance(next - 1)
		if transitions != before {
			t.Fatalf("transition applied before the reported bound %d", next)
		}
		s.Advance(next)
		if transitions == before {
			t.Fatalf("no transition at the reported bound %d", next)
		}
		c = next
	}
	if s.FailEvents() == 0 {
		t.Fatal("soak produced no failures")
	}
}

// newStatePushed is how NewState used to instantiate a plan's random
// process: every live channel's first failure pushed one by one onto a heap
// grown from nothing, each gap taking two logarithms. It is kept here only
// as the reference TestHeapifiedPlanMatchesPushLoop holds NewState to.
func newStatePushed(p Plan, topo topology.Topology) *State {
	s := MustNew(Plan{Static: p.Static, Nodes: p.Nodes}, topo)
	s.events = nil
	s.rate, s.logq, s.repair = p.Rate, math.Log1p(-p.Rate), p.Repair
	s.rng = rand.New(rand.NewSource(p.Seed))
	for node := 0; node < topo.Nodes(); node++ {
		for d := 0; d < s.dims2; d++ {
			key := node*s.dims2 + d
			if s.perm[key] {
				continue
			}
			if _, ok := topo.Neighbor(topology.NodeID(node), topology.Direction(d)); !ok {
				continue
			}
			u := s.rng.Float64()
			for u == 0 {
				u = s.rng.Float64()
			}
			g := int64(math.Log(u)/math.Log1p(-s.rate)) + 1
			if g < 1 {
				g = 1
			}
			s.push(event{cycle: g, ch: int32(key), fail: true})
		}
	}
	return s
}

// transitions drives the state from event to event up to the horizon and
// lists every transition it applies, with the cycle it was applied at.
func transitions(s *State, horizon int64) []string {
	var out []string
	at := int64(0)
	s.OnChange = func(from topology.NodeID, dir topology.Direction, failed bool) {
		out = append(out, fmt.Sprintf("%d:%d:%v:%v", at, from, dir, failed))
	}
	for at = s.NextEventCycle(); at <= horizon; at = s.NextEventCycle() {
		s.Advance(at)
	}
	out = append(out, fmt.Sprintf("active=%d fails=%d epoch=%d", s.ActiveFaults(), s.FailEvents(), s.Epoch()))
	return out
}

// faultPlanCases are plans whose random process runs long enough to fail,
// repair and re-fail most channels, beside static and node faults.
func faultPlanCases() []struct {
	name string
	topo topology.Topology
	plan Plan
} {
	mesh := topology.NewMesh2D(16, 16)
	return []struct {
		name string
		topo topology.Topology
		plan Plan
	}{
		{"mesh-transient", mesh, Plan{Rate: 2e-5, Repair: 300, Seed: 3}},
		{"mesh-permanent", mesh, Plan{Rate: 5e-6, Seed: 11}},
		{"mesh-static-and-nodes", mesh, Plan{
			Static: []topology.Channel{{From: 17, Dir: topology.East}},
			Nodes:  []topology.NodeID{40, 200},
			Rate:   1e-5, Repair: 50, Seed: 5,
		}},
		{"cube-transient", topology.NewHypercube(7), Plan{Rate: 3e-5, Repair: 120, Seed: 9}},
	}
}

// TestHeapifiedPlanMatchesPushLoop: NewState builds its event heap in one
// pass and draws each gap with one logarithm. A plan's transitions over a
// long horizon — which channel fails or is repaired at which cycle — must
// be exactly those of the push-by-push construction it replaced.
func TestHeapifiedPlanMatchesPushLoop(t *testing.T) {
	const horizon = 400000
	for _, tc := range faultPlanCases() {
		got := transitions(MustNew(tc.plan, tc.topo), horizon)
		want := transitions(newStatePushed(tc.plan, tc.topo), horizon)
		if len(want) < 100 {
			t.Fatalf("%s: only %d transitions; the comparison would be vacuous", tc.name, len(want))
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: heapified plan diverges from the push loop (%d vs %d transitions)", tc.name, len(got), len(want))
		}
	}
}

// TestStateResetMatchesNewState: a state reset to a plan replays the
// transitions a fresh one does, whatever plan and topology it held before,
// and keeps its observer.
func TestStateResetMatchesNewState(t *testing.T) {
	const horizon = 100000
	cases := faultPlanCases()
	s := MustNew(cases[0].plan, cases[0].topo)
	transitions(s, horizon)
	for _, tc := range append(cases, cases[0]) {
		if err := s.Reset(tc.plan, tc.topo); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := transitions(MustNew(tc.plan, tc.topo), horizon)
		if got := transitions(s, horizon); !slices.Equal(got, want) {
			t.Errorf("%s: reset state diverges from a new one (%d vs %d transitions)", tc.name, len(got), len(want))
		}
	}
	observed := 0
	s.OnChange = func(topology.NodeID, topology.Direction, bool) { observed++ }
	if err := s.Reset(Plan{Nodes: []topology.NodeID{1000}}, cases[0].topo); err == nil {
		t.Fatal("Reset accepted a node outside the topology")
	}
	if err := s.Reset(Plan{Rate: 1e-3, Seed: 1}, cases[0].topo); err != nil {
		t.Fatal(err)
	}
	s.Advance(10000)
	if observed == 0 {
		t.Error("Reset dropped the OnChange observer")
	}
}
