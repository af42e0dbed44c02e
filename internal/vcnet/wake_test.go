package vcnet

// Wake-edge tests for the sleepers this engine has: refused headers, woken
// when an output virtual channel of their router is released or the fault set
// changes; worms with nothing to move, woken by a grant, an arrival, or the
// previous holder's tail leaving the buffer their header waits for; sources
// behind an occupied injection buffer, woken when the tail leaves it; and
// worms streaming into their destination, asleep on a timer until their
// source is done or an earlier claim breaks their reservation.
// The cases mirror internal/network's wake_test.go on the algorithm lifted to
// one virtual channel, plus the movement cases of this engine's runs; the
// lost-wake oracle runs after every step.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"turnmodel/internal/engine"
	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/vc"
)

func stepChecked(t *testing.T, n *Network) {
	t.Helper()
	if err := n.Step(); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, n)
}

// TestWakeVCTailCrossingWakesItsRouterOnly: a header refused a virtual
// channel that a long worm is streaming through sleeps while the body
// passes and is granted on the cycle after the tail crosses; a header
// sleeping at the neighbouring router behind a broken link is not woken.
func TestWakeVCTailCrossingWakesItsRouterOnly(t *testing.T) {
	mesh := topology.NewMesh2D(8, 8)
	at := func(x, y int) topology.NodeID { return mesh.ID(topology.Coord{x, y}) }
	net := New(Config{
		Routing:        vc.Lift(routing.XY(mesh)),
		Faults:         []topology.Channel{{From: at(3, 2), Dir: topology.East}},
		WatchdogCycles: -1,
	})
	net.Enqueue(at(0, 1), at(7, 1), 30)
	for c := 0; c < 6; c++ {
		stepChecked(t, net)
	}
	held := net.ownerKey(at(3, 1), topology.East, 0)
	if net.owner[held] == nil {
		t.Fatal("the long worm does not hold (3,1)->(4,1) yet")
	}
	here := net.Enqueue(at(3, 1), at(6, 1), 2)
	there := net.Enqueue(at(3, 2), at(6, 2), 2)
	stepChecked(t, net)
	crossed := int64(-1)
	for c := 0; c < 60 && here.Hops == 0; c++ {
		if net.owner[held] != nil {
			if net.wait.Awake(int32(at(3, 1))) || net.wait.Awake(int32(at(3, 2))) {
				t.Fatalf("cycle %d: a router with nothing but refused headers is awake", net.Cycle())
			}
		} else if crossed < 0 {
			crossed = net.Cycle() - 1
			if !net.wait.Awake(int32(at(3, 1))) {
				t.Fatalf("cycle %d: the tail crossed (3,1)->(4,1) and did not wake (3,1)", crossed)
			}
			if net.wait.Awake(int32(at(3, 2))) {
				t.Fatalf("cycle %d: the tail crossing at (3,1) woke its neighbour (3,2)", crossed)
			}
		}
		before := net.Cycle()
		stepChecked(t, net)
		if here.Hops == 1 && before != crossed+1 {
			t.Fatalf("the refused header moved in cycle %d, the tail crossed in cycle %d: want the next cycle", before, crossed)
		}
	}
	if here.Hops == 0 || crossed < 0 {
		t.Fatalf("the refused header never moved (tail crossed at %d)", crossed)
	}
	if there.Hops != 0 {
		t.Fatalf("the header behind the broken link moved %d hops", there.Hops)
	}
}

// crossingVCNet is internal/network's crossingNet on the algorithm lifted
// to one virtual channel: H refused at (3,1) behind a 30-flit worm streaming
// east along row 1, and V, 5 flits north up column 3, about to hop into (3,1)
// and cross it while H still waits.
func crossingVCNet(t *testing.T) (net *Network, at func(x, y int) topology.NodeID, h, v *Packet) {
	t.Helper()
	mesh := topology.NewMesh2D(8, 8)
	at = func(x, y int) topology.NodeID { return mesh.ID(topology.Coord{x, y}) }
	net = New(Config{Routing: vc.Lift(routing.XY(mesh)), WatchdogCycles: -1})
	net.Enqueue(at(0, 1), at(7, 1), 30)
	for c := 0; c < 6; c++ {
		stepChecked(t, net)
	}
	h = net.Enqueue(at(3, 1), at(6, 1), 2)
	stepChecked(t, net)
	v = net.Enqueue(at(3, 0), at(3, 5), 5)
	return net, at, h, v
}

// TestWakeVCHopOffersOnlyTheNewcomer: a header hopping into a router where a
// refused header waits is offered next cycle; the refused header is not.
func TestWakeVCHopOffersOnlyTheNewcomer(t *testing.T) {
	net, at, hp, vp := crossingVCNet(t)
	h := wormOf(net, hp)
	for c := 0; c < 10 && vp.Hops < 1; c++ {
		stepChecked(t, net)
	}
	v := wormOf(net, vp)
	if vp.Hops != 1 || v.headRouter != at(3, 1) || v.routed {
		t.Fatalf("V's header did not come to wait at (3,1): %d hops, at router %d", vp.Hops, v.headRouter)
	}
	if !net.wait.Due(&v.wait) {
		t.Fatal("the newcomer at (3,1) is not due for an offer")
	}
	if net.wait.Due(&h.wait) {
		t.Fatal("the hop into (3,1) made the refused header due again")
	}
	stepChecked(t, net)
	if vp.Hops != 2 || hp.Hops != 0 {
		t.Fatalf("after the offer: V made %d hops (want 2), H %d (want 0)", vp.Hops, hp.Hops)
	}
}

// TestWakeVCReleaseOfUnwantedOutputOffersNobody: V's tail crossing
// (3,1)->(3,2) releases a virtual channel of H's router that H does not
// want: recorded, but nobody is due, and H moves only once the channel it
// wants comes free.
func TestWakeVCReleaseOfUnwantedOutputOffersNobody(t *testing.T) {
	net, at, hp, vp := crossingVCNet(t)
	h := wormOf(net, hp)
	north := net.ownerKey(at(3, 1), topology.North, 0)
	east := net.ownerKey(at(3, 1), topology.East, 0)
	released := false
	for c := 0; c < 40 && !released; c++ {
		held := net.owner[north] != nil
		stepChecked(t, net)
		if held && net.owner[north] == nil {
			released = true
			if net.owner[east] == nil {
				t.Fatal("the long worm let go of (3,1)->(4,1) before V's tail crossed (3,1)->(3,2)")
			}
			if !net.wait.Awake(int32(at(3, 1))) {
				t.Fatal("the release at (3,1) was not recorded")
			}
			if net.wait.Due(&h.wait) {
				t.Fatal("releasing (3,1)->(3,2) made H, which wants only (3,1)->(4,1), due")
			}
		}
	}
	if !released || vp.Hops < 2 {
		t.Fatalf("V never crossed (3,1)->(3,2) (hops %d)", vp.Hops)
	}
	for c := 0; c < 60 && hp.Hops == 0; c++ {
		wanted := net.owner[east] == nil
		if !wanted && net.wait.Due(&h.wait) {
			t.Fatalf("cycle %d: H is due while the channel it wants is still held", net.Cycle())
		}
		stepChecked(t, net)
		if wanted && hp.Hops == 0 {
			t.Fatalf("cycle %d: H was not granted the channel it wants once it came free", net.Cycle())
		}
	}
	if hp.Hops == 0 {
		t.Fatal("H never moved")
	}
}

// TestWakeVCAbortWakesRefusedHeader: a worm wedged at a broken link holds
// the virtual channels behind it; a header refused one of them sleeps, and
// moves in the very step recovery aborts the holder.
func TestWakeVCAbortWakesRefusedHeader(t *testing.T) {
	mesh := topology.NewMesh2D(16, 2)
	at := func(x int) topology.NodeID { return mesh.ID(topology.Coord{x, 0}) }
	net := New(Config{
		Routing:        vc.Lift(routing.XY(mesh)),
		Faults:         []topology.Channel{{From: at(9), Dir: topology.East}},
		Recovery:       fault.Recovery{Enabled: true, StallCycles: 40, MaxRetries: 0},
		WatchdogCycles: -1,
	})
	blocker := net.Enqueue(at(4), at(12), 3)
	for c := 0; c < 10; c++ {
		stepChecked(t, net)
	}
	late := net.Enqueue(at(8), at(12), 1) // wants (8,0)->(9,0), held by the blocker
	for net.PacketsAborted() == 0 {
		if net.Cycle() > 100 {
			t.Fatal("the blocker was never aborted")
		}
		if late.Hops != 0 {
			t.Fatalf("cycle %d: the refused header moved while the blocker still stood", net.Cycle())
		}
		if net.Cycle() > 12 && net.wait.Awake(int32(at(8))) {
			t.Fatalf("cycle %d: router (8,0) is awake with nothing but a refused header", net.Cycle())
		}
		stepChecked(t, net)
	}
	if blocker.Aborts != 1 {
		t.Fatalf("the aborted worm was not the blocker (its aborts: %d)", blocker.Aborts)
	}
	if late.Hops != 1 {
		t.Errorf("the refused header made %d hops in the step its channel's holder was aborted, want 1", late.Hops)
	}
}

// TestWakeVCRepairGrantsWithoutMasking mirrors internal/network's
// regression test: recovery without masking, the waiting header's only
// candidate link broken and then repaired by the plan — the header moves on
// the repair cycle.
func TestWakeVCRepairGrantsWithoutMasking(t *testing.T) {
	mesh := topology.NewMesh2D(6, 6)
	plan := fault.Plan{Rate: 2e-4, Repair: 60, Seed: 9}
	twin := fault.MustNew(plan, mesh)
	var ch topology.Channel
	found := false
	twin.OnChange = func(from topology.NodeID, dir topology.Direction, failed bool) {
		if c := mesh.Coord(from); !found && failed && dir == topology.East && c[0] >= 1 && c[0] <= 3 {
			ch, found = topology.Channel{From: from, Dir: dir}, true
		}
	}
	broke := int64(-1)
	for c := int64(0); c < 5000 && !found; c++ {
		twin.Advance(c)
		broke = c
	}
	if !found {
		t.Fatal("the plan never breaks an eastbound channel in columns 1..3")
	}
	repair := broke + plan.Repair
	net := New(Config{
		Routing:   vc.Lift(routing.XY(mesh)),
		FaultPlan: plan,
		Recovery:  fault.Recovery{Enabled: true, StallCycles: 500},
	})
	var p *Packet
	for net.Cycle() <= repair {
		c := net.Cycle()
		if c == broke+5 {
			to := mesh.Coord(ch.From)
			to[0] += 2
			p = net.Enqueue(ch.From, mesh.ID(to), 1)
		}
		stepChecked(t, net)
		switch {
		case p == nil:
		case c < repair && p.Hops != 0:
			t.Fatalf("cycle %d: the header crossed a link broken from %d to %d", c, broke, repair)
		case c == repair && p.Hops != 1:
			t.Fatalf("the header slept through the repair of its link in cycle %d (hops %d)", repair, p.Hops)
		}
	}
}

// wakeWorkload drives a deterministic contended workload — uniform random
// traffic on an 8x8 double-y mesh, two messages a cycle — then lets it drain,
// and records every delivery.
func wakeWorkload(t *testing.T, cfg Config, cycles int) (deliveries []string, totals string) {
	t.Helper()
	cfg.Routing = vc.DoubleY(topology.NewMesh2D(8, 8))
	net := New(cfg)
	rng := rand.New(rand.NewSource(78))
	for c := 0; c < cycles || net.InFlight() > 0; c++ {
		if c > cycles+40000 {
			t.Fatal("workload did not drain")
		}
		if c < cycles {
			for k := 0; k < 2; k++ {
				src, dst := topology.NodeID(rng.Intn(64)), topology.NodeID(rng.Intn(64))
				if src != dst {
					net.Enqueue(src, dst, 1+rng.Intn(12))
				}
			}
		}
		stepChecked(t, net)
		for _, p := range net.TakeDelivered() {
			deliveries = append(deliveries, fmt.Sprintf("%d:%d@%d+%d/%d", c, p.ID, p.Injected, p.Arrived, p.Hops))
		}
	}
	return deliveries, fmt.Sprintf("delivered %d flits %d", net.PacketsDelivered(), net.FlitsConsumed())
}

// TestWakeVCProbeOnAndOffAgree: with a probe attached arbitration walks
// every waiter instead of the awake routers' (a blocked header is a Blocked
// event every cycle); both walks must grant identically, and the probed run must count exactly the blocked header-cycles the
// every-cycle rescan counted on this workload (taken on the commit before
// wake-on-release).
func TestWakeVCProbeOnAndOffAgree(t *testing.T) {
	const parentBlocked = 14280
	off, offTotals := wakeWorkload(t, Config{}, 1000)
	probe := &ledgerProbe{t: t}
	on, onTotals := wakeWorkload(t, Config{Probe: probe}, 1000)
	if !reflect.DeepEqual(off, on) || offTotals != onTotals {
		t.Fatalf("probe-off and probe-on runs diverge: %d deliveries, %s vs %d deliveries, %s",
			len(off), offTotals, len(on), onTotals)
	}
	if probe.blocked != parentBlocked {
		t.Errorf("probe saw %d blocked header-cycles, the per-cycle rescan saw %d", probe.blocked, parentBlocked)
	}
}

// TestLostWakeVCSoak runs the lost-wake oracle after every cycle of soaks
// with no probe attached (the chaos soaks carry one, which turns the
// awake-router walk into the full walk): transient faults, recovery's aborts
// and retries, and fault masking.
func TestLostWakeVCSoak(t *testing.T) {
	mesh := topology.NewMesh2D(6, 6)
	plan := fault.Plan{Rate: 4e-5, Repair: 150, Seed: 11}
	rec := fault.Recovery{Enabled: true, StallCycles: 60, MaxRetries: 6}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Routing: vc.DoubleY(mesh)}},
		{"recovery", Config{Routing: vc.Lift(routing.XY(mesh)), FaultPlan: plan, Recovery: rec}},
		{"recovery-double-y", Config{Routing: vc.DoubleY(mesh), FaultPlan: plan, Recovery: rec}},
		{"masked", Config{Routing: vc.Lift(routing.NegativeFirst(mesh)), FaultPlan: plan, Recovery: rec,
			FaultRouting: fault.RoutingPolicy{Visibility: fault.VisibilityKHop, MisrouteLimit: 3}}},
		{"torus", Config{Routing: vc.DatelineDOR(topology.NewKaryNCube(5, 2)), FaultPlan: plan, Recovery: rec}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := New(tc.cfg)
			nodes := tc.cfg.Routing.Topology().Nodes()
			rng := rand.New(rand.NewSource(32))
			for c := 0; c < 3000 || net.InFlight() > 0; c++ {
				if c > 400000 {
					t.Fatalf("did not drain: %d in flight", net.InFlight())
				}
				if c < 3000 && c%2 == 0 {
					for k := 0; k < 1+2*(c/500%2); k++ {
						src, dst := topology.NodeID(rng.Intn(nodes)), topology.NodeID(rng.Intn(nodes))
						if src != dst {
							net.Enqueue(src, dst, 1+rng.Intn(16))
						}
					}
				}
				stepChecked(t, net)
			}
			if net.PacketsDelivered() == 0 {
				t.Fatal("nothing delivered")
			}
			if tc.cfg.Recovery.Enabled && net.PacketsAborted() == 0 {
				t.Fatal("no worm was ever aborted; the soak did not exercise the abort wakes")
			}
		})
	}
}

// wormOf finds the worm carrying the packet, or nil.
func wormOf(n *Network, p *Packet) *worm {
	for _, w := range n.slots {
		if w != nil && w.pkt == p {
			return w
		}
	}
	return nil
}

// awakeCount is the number of worms due for the next movement phase.
func awakeCount(n *Network) int {
	k := 0
	for s := range n.slots {
		if n.awake.has(s) {
			k++
		}
	}
	return k
}

// TestWakeVCStreamingWormOneVisitPerCycle: a lone 200-flit xy worm — one
// virtual channel everywhere, so nothing is ever stamped — is one run from
// injection to delivery, and between any two steps it is the only worm due
// for a visit, once: a step visits it once, however many flits it moves.
// A probe is attached, so the worm never sleeps (TestWakeVCSleepLoneWorm
// has the probe-off run).
func TestWakeVCStreamingWormOneVisitPerCycle(t *testing.T) {
	mesh := topology.NewMesh2D(8, 8)
	at := func(x, y int) topology.NodeID { return mesh.ID(topology.Coord{x, y}) }
	net := New(Config{Routing: vc.Lift(routing.XY(mesh)), Probe: &flitMoves{}})
	p := net.Enqueue(at(0, 0), at(7, 5), 200)
	for p.Arrived < 0 {
		if net.Cycle() > 1000 {
			t.Fatal("the worm was not delivered")
		}
		consumed := net.FlitsConsumed()
		stepChecked(t, net)
		w := wormOf(net, p)
		if w == nil {
			break
		}
		if len(w.runs) != 1 {
			t.Fatalf("cycle %d: the worm is %d runs, want 1", net.Cycle(), len(w.runs))
		}
		if k := awakeCount(net); k != 1 || !net.awake.has(w.slot) {
			t.Fatalf("cycle %d: %d worms due, want exactly the streaming one", net.Cycle(), k)
		}
		if w.arrived && w.done > 0 && net.FlitsConsumed()-consumed != 1 {
			t.Fatalf("cycle %d: %d flits consumed, want one a cycle", net.Cycle(), net.FlitsConsumed()-consumed)
		}
	}
	if want := int64(mesh.Distance(p.Src, p.Dst) + p.Length - 1); p.Latency() != want {
		t.Fatalf("latency %d, want %d", p.Latency(), want)
	}
	if k := awakeCount(net); k != 0 {
		t.Fatalf("%d worms due in an empty network", k)
	}
}

// TestWakeVCRunSplitsAndRemerges: on a double-y mesh, W climbs column 1 on
// the y links' second virtual channel while V — older, west-pending, with
// the westward links of column 1's lowest rows broken — climbs it on the
// first. In cycle 1 V takes the link (1,1)->(1,2), and W's second flit, due
// to cross it, is refused: W's run splits behind its header. The header
// then stops at (1,5), whose link north H holds; the flits behind close up
// on it, and the two runs merge again before any flit is consumed.
func TestWakeVCRunSplitsAndRemerges(t *testing.T) {
	mesh := topology.NewMesh2D(4, 8)
	at := func(x, y int) topology.NodeID { return mesh.ID(topology.Coord{x, y}) }
	var faults []topology.Channel
	for y := 0; y < 3; y++ {
		faults = append(faults, topology.Channel{From: at(1, y), Dir: topology.West})
	}
	net := New(Config{Routing: vc.DoubleY(mesh), Faults: faults})
	v := net.Enqueue(at(1, 0), at(0, 5), 1)
	wp := net.Enqueue(at(1, 1), at(1, 7), 30)
	net.Enqueue(at(1, 5), at(1, 7), 8) // H
	stepChecked(t, net)
	stepChecked(t, net)
	w := wormOf(net, wp)
	if v.Hops != 2 || len(w.runs) != 2 || w.runs[1].front != 0 || w.runs[1].first != 1 {
		t.Fatalf("cycle 1: V made %d hops, W's runs are %v: want V over (1,1)->(1,2) and W's second flit left behind at its source", v.Hops, w.runs)
	}
	if d, vcs := topology.Direction(net.portDir[w.path[1]]), net.alg.VCs(topology.North); d != topology.North || vcs != 2 {
		t.Fatalf("W's second flit waits to cross a %v link with %d virtual channels", d, vcs)
	}
	for len(w.runs) > 1 {
		if net.Cycle() > 10 {
			t.Fatalf("cycle %d: W is still %v", net.Cycle(), w.runs)
		}
		stepChecked(t, net)
	}
	if w.done != 0 || wp.Hops != mesh.Distance(at(1, 1), at(1, 5)) {
		t.Fatalf("the runs merged with %d flits consumed and the header %d hops out", w.done, wp.Hops)
	}
}

// flitMoves records the probe's FlitMove events in order.
type flitMoves struct {
	metrics.NopProbe
	events []flitMove
}

type flitMove struct {
	cycle int64
	from  topology.NodeID
	dir   topology.Direction
}

func (p *flitMoves) FlitMove(cycle int64, from topology.NodeID, d topology.Direction, flits int) {
	p.events = append(p.events, flitMove{cycle, from, d})
}

// TestWakeVCTailLeaveJoinsRoundInInjectionOrder: header X is granted the
// channel (4,0)->(5,0) while the previous holder Y's tail still sits in the
// buffer it feeds, Y being held up ahead by an older long worm; X sleeps.
// When Y moves on, its tail leaving that buffer wakes X, which hops in the
// same cycle — in the round under way when X was injected after Y (the
// sweep's cursor has not reached X yet), in the next round when X was
// injected before Y (the cursor has passed it). A worm W injected after all
// of them, moving in that cycle's first round, shows which: the sweep visits
// X before W in the first case and after W in the second.
func TestWakeVCTailLeaveJoinsRoundInInjectionOrder(t *testing.T) {
	for _, xFirst := range []bool{false, true} {
		name := "same-round"
		if xFirst {
			name = "next-round"
		}
		t.Run(name, func(t *testing.T) {
			mesh := topology.NewMesh2D(16, 2)
			at := func(x, y int) topology.NodeID { return mesh.ID(topology.Coord{x, y}) }
			probe := &flitMoves{}
			net := New(Config{Routing: vc.Lift(routing.XY(mesh)), Probe: probe})
			// B, the oldest, holds (7,0)->(8,0) and stops Y; when its tail
			// leaves (8,0) it wakes Y in the same round, and Y's tail leaving
			// (5,0) wakes X.
			var x *Packet
			net.Enqueue(at(7, 0), at(10, 0), 30)
			if xFirst {
				x = net.Enqueue(at(0, 0), at(6, 0), 1) // reaches (4,0) after Y's tail
			}
			stepChecked(t, net)
			y := net.Enqueue(at(4, 0), at(12, 0), 3)
			if !xFirst {
				x = net.Enqueue(at(4, 0), at(6, 0), 1) // queued behind Y at its source
			}
			// X's header waits at (4,0) having made this many hops.
			waits := mesh.Distance(x.Src, at(4, 0))
			slept := false
			for x.Hops <= waits {
				if net.Cycle() == 5 {
					net.Enqueue(at(0, 1), at(15, 1), 100) // W, streaming along row 1
				}
				if net.Cycle() > 200 {
					t.Fatal("X never hopped")
				}
				stepChecked(t, net)
				if w := wormOf(net, x); w != nil && w.routed && x.Hops == waits && !net.awake.has(w.slot) {
					slept = true
				}
			}
			hop := net.Cycle() - 1
			wy := wormOf(net, y)
			if !slept || wy == nil || wormOf(net, x).slot < wy.slot == !xFirst {
				t.Fatalf("X did not sleep granted (%v), or the injection order is not the case's", slept)
			}
			xAt, wAt, yAt := -1, -1, -1
			for i, e := range probe.events {
				switch {
				case e.cycle != hop:
				case e.from == at(4, 0) && e.dir == topology.East:
					xAt = i
				case e.from == at(5, 0) && e.dir == topology.East:
					yAt = i // Y's tail leaving the buffer X waits for
				case e.from >= at(0, 1) && wAt < 0:
					wAt = i
				}
			}
			if xAt < 0 || yAt < 0 || wAt < 0 || yAt > xAt {
				t.Fatalf("cycle %d: X hop at event %d, Y's tail at %d, W's first move at %d", hop, xAt, yAt, wAt)
			}
			if xFirst != (xAt > wAt) {
				t.Fatalf("cycle %d: X hopped at event %d, W first moved at %d: X must move %s W", hop, xAt, wAt,
					map[bool]string{true: "after", false: "before"}[xFirst])
			}
		})
	}
}

// enq is one message of a pinned-cycle scenario, enqueued at cycle at.
type enq struct {
	at       int64
	src, dst topology.NodeID
	length   int
}

// sleepTwins runs the traffic to completion on cfg, calling watch after
// every step, and again with a probe attached, which never lets a
// worm sleep (FlitMove is owed for every flit): the two runs must inject and
// deliver every packet on the same cycles over the same hops, and consume
// the same number of flits in every cycle.
func sleepTwins(t *testing.T, cfg Config, traffic []enq, watch func(net *Network, pkts []*Packet)) {
	t.Helper()
	run := func(cfg Config, watch func(*Network, []*Packet)) (pkts []*Packet, flits []int64) {
		net := New(cfg)
		for next := 0; next < len(traffic) || net.InFlight() > 0; {
			if net.Cycle() > 5000 {
				t.Fatal("the traffic did not drain")
			}
			for ; next < len(traffic) && traffic[next].at == net.Cycle(); next++ {
				e := traffic[next]
				pkts = append(pkts, net.Enqueue(e.src, e.dst, e.length))
			}
			stepChecked(t, net)
			flits = append(flits, net.FlitsConsumed())
			watch(net, pkts)
		}
		return pkts, flits
	}
	off, offFlits := run(cfg, watch)
	ref := cfg
	ref.Probe = &flitMoves{}
	on, onFlits := run(ref, func(net *Network, _ []*Packet) {
		if net.asleep != 0 {
			t.Fatalf("cycle %d: a worm sleeps with a probe attached", net.Cycle()-1)
		}
	})
	for c := range max(len(offFlits), len(onFlits)) {
		if c >= len(offFlits) || c >= len(onFlits) || offFlits[c] != onFlits[c] {
			t.Fatalf("cycle %d: %d flits consumed by its end, %d with a probe attached (runs of %d and %d cycles)",
				c, offFlits[min(c, len(offFlits)-1)], onFlits[min(c, len(onFlits)-1)], len(offFlits), len(onFlits))
		}
	}
	for i, p := range off {
		if q := on[i]; p.Injected != q.Injected || p.Arrived != q.Arrived || p.Hops != q.Hops {
			t.Fatalf("%v, with a probe attached %v", p, q)
		}
	}
}

// TestWakeVCSleepLoneWorm: a lone 200-flit xy worm on 3 hops is due for a
// visit while its header travels and in the cycle it is found arrived; at
// the end of that visit it falls asleep until its source is to send its
// last flit, and from then on it is visited while its tail drains. The run
// matches the probe-on run, which visits it every cycle, cycle for cycle.
func TestWakeVCSleepLoneWorm(t *testing.T) {
	mesh := topology.NewMesh2D(8, 8)
	at := func(x, y int) topology.NodeID { return mesh.ID(topology.Coord{x, y}) }
	var visits []int64
	asleep := 0
	sleepTwins(t, Config{Routing: vc.Lift(routing.XY(mesh))}, []enq{{0, at(1, 2), at(4, 2), 200}},
		func(net *Network, pkts []*Packet) {
			w := wormOf(net, pkts[0])
			switch {
			case w == nil:
			case net.awake.has(w.slot) || w.wakeAt == net.Cycle():
				visits = append(visits, net.Cycle())
			case w.wakeAt != 0:
				asleep++
			}
		})
	// Injected and hopping in cycles 0 to 2, found arrived in cycle 3, when
	// its fifth flit is sent: 195 left, the last to be sent in cycle 198.
	// Its tail drains in cycles 199 to 202.
	want := []int64{1, 2, 3, 198, 199, 200, 201, 202}
	if !reflect.DeepEqual(visits, want) || asleep != 198-4 {
		t.Fatalf("the worm is due before the steps of cycles %v and asleep for %d cycles, want %v and %d", visits, asleep, want, 198-4)
	}
}

// claimWatch follows the sleeper S (the message of 200 flits) and the
// claimant B of a sleep-break scenario between steps. ready reports that B
// is claiming a channel S reserves, won that it has had it. With B injected
// before S, the sweep visits B first, so S's sleep must end before its timer
// in exactly the step B's claim first succeeds, with S refused in that step.
// With B injected after S, B must be refused while S sleeps on to its timer.
// check reports what the scenario failed to show.
func claimWatch(t *testing.T, bFirst bool, ready, won func(net *Network, b *Packet) bool) (watch func(*Network, []*Packet), check func()) {
	var (
		timer  int64 = -1 // S's first timer
		broke  int64 = -1 // the step S's sleep ended in before its timer
		waited int        // steps B was refused in while S slept on
		was    bool       // S asleep before the step
		done   int        // S's done before the step, as the sweep holds it
		bWon   bool
	)
	watch = func(net *Network, pkts []*Packet) {
		if len(pkts) < 2 {
			return
		}
		sp, bp := pkts[0], pkts[1]
		if bFirst {
			sp, bp = bp, sp
		}
		step := net.Cycle() - 1
		w := wormOf(net, sp)
		if w == nil {
			return
		}
		asleep := w.wakeAt != 0
		if asleep && timer < 0 {
			timer = w.wakeAt
		}
		now := won(net, bp)
		if was && !asleep && step < timer && broke < 0 {
			broke = step
			if !now || bWon {
				t.Fatalf("step %d: S's sleep ended before its timer (%d) but not in the step B's claim first succeeded", step, timer)
			}
			if len(w.runs) == 1 && w.done != done {
				t.Fatalf("step %d: S broke its sleep and moved whole (done %d -> %d)", step, done, w.done)
			}
		}
		if was && asleep && !now && ready(net, bp) {
			waited++
		}
		_, done, _ = view(net, w)
		was, bWon = asleep, now
	}
	check = func() {
		switch {
		case timer < 0:
			t.Fatal("S never slept")
		case bFirst && broke < 0:
			t.Fatal("B, injected first, never broke S's sleep")
		case !bFirst && broke >= 0:
			t.Fatalf("B, injected after S, broke its sleep in step %d", broke)
		case !bFirst && waited == 0:
			t.Fatal("B never claimed a channel S reserves while S slept")
		}
	}
	return watch, check
}

// sleepBreakCases runs a sleep-break scenario both ways round: B injected in
// cycle 0 and S in cycle 1, and the other way.
func sleepBreakCases(t *testing.T, cfg Config, s, b enq, ready, won func(net *Network, b *Packet) bool) {
	for _, bFirst := range []bool{true, false} {
		name := "smaller-slot-breaks"
		if !bFirst {
			name = "larger-slot-refused"
		}
		t.Run(name, func(t *testing.T) {
			first, second := s, b
			if bFirst {
				first, second = b, s
			}
			first.at, second.at = 0, 1
			watch, check := claimWatch(t, bFirst, ready, won)
			sleepTwins(t, cfg, []enq{first, second}, watch)
			check()
		})
	}
}

// arrived and ejected are the ready and won of an ejection-break scenario:
// B's header has been found arrived, and B has consumed a flit.
func arrived(net *Network, b *Packet) bool {
	w := wormOf(net, b)
	return w != nil && w.arrived
}

func ejected(net *Network, b *Packet) bool {
	w := wormOf(net, b)
	return w == nil && b.Arrived >= 0 || w != nil && w.done > 0
}

// TestWakeVCSleepEjectionBreak: S streams from (4,0) into (5,0) and sleeps,
// reserving (5,0)'s ejection channel; B comes down column 5 and is found
// arrived there while S sleeps.
func TestWakeVCSleepEjectionBreak(t *testing.T) {
	mesh := topology.NewMesh2D(8, 8)
	at := func(x, y int) topology.NodeID { return mesh.ID(topology.Coord{x, y}) }
	sleepBreakCases(t, Config{Routing: vc.Lift(routing.XY(mesh))},
		enq{0, at(4, 0), at(5, 0), 200}, enq{0, at(5, 7), at(5, 0), 20}, arrived, ejected)
}

// TestWakeVCSleepChannelBreak: on a double-y mesh whose westward links out
// of column 1's three lowest routers are broken, S climbs column 1 on the y
// links' second virtual channel into (1,3) and sleeps, reserving the links;
// B comes west along row 1 to (1,3) and, west-pending but unable to turn
// west, climbs from (1,1) to (1,3) on the first virtual channel of the same
// links while S sleeps.
func TestWakeVCSleepChannelBreak(t *testing.T) {
	mesh := topology.NewMesh2D(8, 8)
	at := func(x, y int) topology.NodeID { return mesh.ID(topology.Coord{x, y}) }
	var faults []topology.Channel
	for y := 0; y < 3; y++ {
		faults = append(faults, topology.Channel{From: at(1, y), Dir: topology.West})
	}
	// Six hops west take B's header to (1,1); the seventh crosses the link
	// (1,1)->(1,2).
	atLink := func(net *Network, b *Packet) bool {
		w := wormOf(net, b)
		return w != nil && b.Hops == 6 && w.routed
	}
	crossed := func(_ *Network, b *Packet) bool { return b.Hops > 6 }
	sleepBreakCases(t, Config{Routing: vc.DoubleY(mesh), Faults: faults},
		enq{0, at(1, 0), at(1, 3), 200}, enq{0, at(7, 1), at(0, 3), 20}, atLink, crossed)
}

// TestWakeVCSleepCompactionAndClose: the sleep survives the two things that
// could disturb a network around a worm without touching it. A compaction in
// activate packs the slots while S sleeps, moving S to a smaller slot, and
// B, still before it, breaks the sleep at the new slot; and Close, a no-op
// kept for callers that release every engine they build, called while S
// sleeps leaves the network stepping on as if it had not been called. Both
// runs match the probe-on run.
func TestWakeVCSleepCompactionAndClose(t *testing.T) {
	mesh := topology.NewMesh2D(16, 16)
	at := func(x, y int) topology.NodeID { return mesh.ID(topology.Coord{x, y}) }
	xy := vc.Lift(routing.XY(mesh))

	t.Run("compaction", func(t *testing.T) {
		// E (slot 0) retires at once; B (slot 1) comes 25 hops from the far
		// corner to S's destination; S (slot 2) sleeps from cycle 2. The 72
		// one-flit messages of cycles 3 and 4 stay clear of all three and are
		// gone by cycle 6, whose injection finds 75 slots for 2 worms and
		// packs them.
		traffic := []enq{{0, at(0, 1), at(1, 1), 1}, {0, at(15, 15), at(5, 0), 20}, {1, at(4, 0), at(5, 0), 200}}
		for c := int64(3); c <= 4; c++ {
			for y := 2; y < 14; y++ {
				for x := 8; x < 14; x += 2 {
					traffic = append(traffic, enq{c, at(x, y), at(x+1, y), 1})
				}
			}
		}
		traffic = append(traffic, enq{6, at(10, 15), at(11, 15), 1})
		watch, check := claimWatch(t, true, arrived, ejected)
		moved := false
		sleepTwins(t, Config{Routing: xy}, traffic, func(net *Network, pkts []*Packet) {
			if len(pkts) < 3 {
				return
			}
			watch(net, pkts[1:3])
			if w := wormOf(net, pkts[2]); w != nil && w.wakeAt != 0 && w.slot == 1 {
				moved = true
			}
		})
		check()
		if !moved {
			t.Fatal("no compaction moved S while it slept")
		}
	})

	t.Run("close", func(t *testing.T) {
		watch, check := claimWatch(t, true, arrived, ejected)
		closed := false
		sleepTwins(t, Config{Routing: xy},
			[]enq{{0, at(5, 7), at(5, 0), 20}, {1, at(4, 0), at(5, 0), 200}},
			func(net *Network, pkts []*Packet) {
				watch(net, pkts)
				if len(pkts) < 2 {
					return
				}
				if w := wormOf(net, pkts[1]); !closed && w != nil && w.wakeAt != 0 {
					net.Close()
					closed = true
				}
			})
		check()
		if !closed {
			t.Fatal("S never slept, so the network was not closed under it")
		}
	})
}

// TestLostWakeVCOracleCatches: every movement clause of the lost-wake
// oracle objects when the wake it guards is dropped.
func TestLostWakeVCOracleCatches(t *testing.T) {
	objects := func(name string, net *Network, want string) {
		t.Helper()
		err := lostWake(net)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: oracle says %v, want an objection containing %q", name, err, want)
		}
	}

	// A dropped tail wake: X sleeps granted the channel into the buffer Y's
	// tail sits in; the tail leaves it without waking X.
	mesh := topology.NewMesh2D(16, 2)
	at := func(x, y int) topology.NodeID { return mesh.ID(topology.Coord{x, y}) }
	net := New(Config{Routing: vc.Lift(routing.XY(mesh))})
	net.Enqueue(at(4, 0), at(12, 0), 3)
	net.Enqueue(at(7, 0), at(10, 0), 30)
	x := net.Enqueue(at(4, 0), at(6, 0), 1)
	for c := 0; c < 10; c++ {
		stepChecked(t, net)
	}
	wx := wormOf(net, x)
	if wx == nil || !wx.routed || net.awake.has(wx.slot) {
		t.Fatal("X is not asleep granted")
	}
	nb := net.bufID(at(5, 0), topology.East, 0)
	net.occupied[nb] = false
	objects("dropped tail wake", net, "can move but is not due")
	net.occupied[nb] = true

	// A dropped grant wake: Z waits behind a broken link; the link comes
	// back and Z is granted it without being made due.
	fnet := New(Config{
		Routing: vc.Lift(routing.XY(mesh)),
		Faults:  []topology.Channel{{From: at(3, 0), Dir: topology.East}},
	})
	z := fnet.Enqueue(at(3, 0), at(6, 0), 2)
	for c := 0; c < 5; c++ {
		stepChecked(t, fnet)
	}
	wz := wormOf(fnet, z)
	if wz == nil || wz.routed || fnet.awake.has(wz.slot) {
		t.Fatal("Z is not waiting behind the broken link")
	}
	fnet.faulted[int(at(3, 0))*fnet.dims2+int(topology.East)] = false
	fnet.wait.Delist(&wz.wait)
	wz.routed, wz.out = true, vc.Out{Dir: topology.East}
	fnet.owner[fnet.ownerKey(at(3, 0), topology.East, 0)] = wz
	objects("dropped grant wake", fnet, "can move but is not due")
	fnet.awake.add(wz.slot)
	if err := lostWake(fnet); err != nil {
		t.Fatalf("with the grant's wake delivered the oracle still objects: %v", err)
	}

	if err := lostWake(net); err != nil {
		t.Fatalf("after undoing the sabotage the oracle still objects: %v", err)
	}

	// A dropped release: H waits refused for the virtual channel a long worm
	// holds; the channel is freed without telling the wait table. Told, the
	// table has H due and the oracle is content.
	rnet, rat, hp, _ := crossingVCNet(t)
	h := wormOf(rnet, hp)
	key := rnet.ownerKey(rat(3, 1), topology.East, 0)
	holder := rnet.owner[key]
	if holder == nil || h.routed || rnet.wait.Due(&h.wait) {
		t.Fatal("H is not asleep behind a held virtual channel")
	}
	rnet.owner[key] = nil
	objects("dropped release", rnet, "candidate output")
	rnet.wait.Release(int32(rat(3, 1)), int(topology.East)*rnet.maxVC)
	if err := lostWake(rnet); err != nil {
		t.Errorf("with the release recorded the oracle still objects: %v", err)
	}
	rnet.owner[key] = holder

	// A dropped reservation and a dropped timer: S streams over one y link
	// of a double-y mesh, (1,0)->(1,1), and sleeps, reserving the link and
	// the ejection channel at (1,1).
	snet := New(Config{Routing: vc.DoubleY(mesh)})
	s := snet.Enqueue(at(1, 0), at(1, 1), 200)
	for c := 0; c < 5; c++ {
		stepChecked(t, snet)
	}
	ws := wormOf(snet, s)
	if ws == nil || ws.wakeAt == 0 {
		t.Fatal("S is not asleep")
	}
	ks := claims(snet, ws)
	if len(ks) != 2 {
		t.Fatalf("S claims channels %v each cycle, want its ejection channel and one y link", ks)
	}
	for _, k := range ks {
		snet.physUsed[k], snet.resv[k] = snet.Cycle()-1, nil
		objects("dropped reservation", snet, "lost reservation")
		snet.physUsed[k], snet.resv[k] = reserved, ws
	}
	timers := snet.sleepers
	snet.sleepers = engine.Timers[timed]{}
	objects("dropped timer", snet, "lost timer")
	snet.sleepers = timers
	if err := lostWake(snet); err != nil {
		t.Fatalf("after undoing the sabotage the oracle still objects: %v", err)
	}
}
