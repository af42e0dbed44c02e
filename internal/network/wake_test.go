package network

// One test per wake edge. Whatever waits in this engine sleeps — a refused
// header at its router, a granted worm on its target buffer, a source behind
// its injection buffer — and is looked at again only when the one release it
// waits for wakes it. Each case below builds, by construction, a sleeper and
// the release that must wake it, and pins the cycle on which it moves to the
// cycle the every-cycle rescans of the previous engine moved it on. The
// lost-wake oracle (lostWake in invariant_test.go) runs after every step of
// every case, and TestLostWakeOracleCatches shows that it is not vacuous.
//
// Time wakes too (TestWakeTimer*): a worm whose header has arrived while its
// source is still sending sleeps on a timer until its tail starts to move,
// and recovery's stall timeouts sleep on one until they are due.
// Those cases pin the cycles to the ones on which the per-cycle drain and the
// per-cycle scan of the active list — the previous engine — acted.
//
// Three cases run as a subtest named shards-1, the one spatial domain a
// network steps as; the name is kept so that their results stay comparable
// with older runs of the suite.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"turnmodel/internal/engine"
	"turnmodel/internal/fault"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// stepChecked steps once, checking the step's aborts against the scan of the
// active list that stall timers replaced, and runs every invariant.
func stepChecked(t *testing.T, n *Network) {
	t.Helper()
	if err := stepVictimsChecked(t, n); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, n)
}

// hopsOf snapshots the packets' hop counts.
func hopsOf(pkts []*Packet) []int {
	out := make([]int, len(pkts))
	for i, p := range pkts {
		out[i] = p.Hops
	}
	return out
}

// brokenRowNet is a 16x2 xy mesh whose channel east out of (9,0) is broken,
// with deadlock recovery armed: a worm sent east along row 0 past column 9
// wedges with its header at (9,0) and is aborted StallCycles later.
func brokenRowNet(t *testing.T) (*Network, *topology.Mesh) {
	t.Helper()
	mesh := topology.NewMesh2D(16, 2)
	net := New(Config{
		Routing:        routing.XY(mesh),
		Faults:         []topology.Channel{{From: mesh.ID(topology.Coord{9, 0}), Dir: topology.East}},
		Recovery:       fault.Recovery{Enabled: true, StallCycles: 40, MaxRetries: 0},
		WatchdogCycles: -1,
	})
	return net, mesh
}

// TestWakeTrainAdvancesInOneCycle: a train of worms each stalled on the
// previous one's tail all advance in the same cycle the front one moves, as
// the sweep-to-fixpoint loop made them — not one per cycle — and the abort
// that starts it wakes both kinds of sleeper: the worm granted the victim's
// tail buffer, and a header refused one of the victim's channels.
//
// A three-flit blocker wedges at the broken channel with its flits in the
// east-input buffers of (9,0), (8,0) and (7,0). Three one-flit followers pile
// up behind it: each is granted the channel its predecessor's tail has
// crossed and stalls with the predecessor's flit in its target buffer. A
// latecomer injected at (8,0) wants the channel (8,0)->(9,0), which the
// blocker holds, and is refused. When recovery aborts the blocker, all five
// sleepers must move in that very step.
func TestWakeTrainAdvancesInOneCycle(t *testing.T) {
	t.Run("shards-1", func(t *testing.T) {
		net, mesh := brokenRowNet(t)
		at := func(x int) topology.NodeID { return mesh.ID(topology.Coord{x, 0}) }
		dst := at(12)
		blocker := net.Enqueue(at(4), dst, 3)
		// The sleepers set out once the blocker is wedged, so that
		// recovery's timeout reaches the blocker first.
		for c := 0; c < 10; c++ {
			stepChecked(t, net)
		}
		train := []*Packet{
			net.Enqueue(at(3), dst, 1),
			net.Enqueue(at(2), dst, 1),
			net.Enqueue(at(1), dst, 1),
		}
		late := net.Enqueue(at(8), dst, 1)
		sleepers := append(append([]*Packet(nil), train...), late)

		// Everything is wedged well before the abort: the blocker's
		// header at (9,0), the followers nose to tail behind its tail,
		// the latecomer in its injection buffer.
		var before []int
		for net.PacketsAborted() == 0 {
			if net.Cycle() > 100 {
				t.Fatal("the blocker was never aborted")
			}
			before = hopsOf(sleepers)
			quiet := net.Cycle() > 20
			stepChecked(t, net)
			if quiet && net.PacketsAborted() == 0 && !reflect.DeepEqual(hopsOf(sleepers), before) {
				t.Fatalf("cycle %d: a sleeper moved while the blocker still stood: hops %v -> %v",
					net.Cycle()-1, before, hopsOf(sleepers))
			}
		}
		if blocker.Aborts != 1 {
			t.Fatalf("the aborted worm was not the blocker (its aborts: %d)", blocker.Aborts)
		}
		if want := []int{3, 3, 3, 0}; !reflect.DeepEqual(before, want) {
			t.Fatalf("hops before the abort %v, want %v: the pile-up did not form as constructed", before, want)
		}
		if got, want := hopsOf(sleepers), []int{4, 4, 4, 1}; !reflect.DeepEqual(got, want) {
			t.Errorf("hops after the abort step %v, want %v: every sleeper must move in the cycle the blocker goes", got, want)
		}
	})
}

// TestWakeTailCrossingWakesItsRouterOnly: a header refused a channel that a
// long worm is streaming through sleeps — its router is not looked at while
// the body passes — and is granted on the cycle after the tail crosses; a
// header sleeping at the neighbouring router, blocked for another reason, is
// not woken by it.
func TestWakeTailCrossingWakesItsRouterOnly(t *testing.T) {
	mesh := topology.NewMesh2D(8, 8)
	at := func(x, y int) topology.NodeID { return mesh.ID(topology.Coord{x, y}) }
	net := New(Config{
		Routing:        routing.XY(mesh),
		Faults:         []topology.Channel{{From: at(3, 2), Dir: topology.East}},
		WatchdogCycles: -1,
	})
	net.Enqueue(at(0, 1), at(7, 1), 30) // the long worm, east along row 1
	for c := 0; c < 6; c++ {
		stepChecked(t, net)
	}
	held := int(at(3, 1))*net.dims2 + int(topology.East)
	if net.outOwner[held] == nil {
		t.Fatal("the long worm does not hold (3,1)->(4,1) yet")
	}
	here := net.Enqueue(at(3, 1), at(6, 1), 2)  // wants the held channel
	there := net.Enqueue(at(3, 2), at(6, 2), 2) // wants the broken one, forever
	stepChecked(t, net)                         // both injected, offered, refused
	crossed := int64(-1)
	for c := 0; c < 60 && here.Hops == 0; c++ {
		if net.outOwner[held] != nil {
			// The body is still streaming through: nobody is awake.
			if net.wait.Awake(int32(at(3, 1))) || net.wait.Awake(int32(at(3, 2))) {
				t.Fatalf("cycle %d: a router with nothing but refused headers is awake", net.Cycle())
			}
		} else if crossed < 0 {
			// The step just taken released the channel.
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
		t.Fatalf("the header behind the broken channel moved %d hops", there.Hops)
	}
}

// crossingNet is the scene of the two cases below, on an 8x8 xy mesh: a
// 30-flit worm east along row 1 holds (3,1)->(4,1) for some 30 cycles; H,
// injected at (3,1) bound east, is refused that channel and sleeps; V, a
// 5-flit worm north up column 3, then hops into (3,1), is granted
// (3,1)->(3,2), and its tail crosses that channel while H still waits. V's
// hop and V's release both happen at H's router, and neither can serve H.
func crossingNet(t *testing.T) (net *Network, at func(x, y int) topology.NodeID, h, v *Packet) {
	t.Helper()
	mesh := topology.NewMesh2D(8, 8)
	at = func(x, y int) topology.NodeID { return mesh.ID(topology.Coord{x, y}) }
	net = New(Config{Routing: routing.XY(mesh), WatchdogCycles: -1})
	net.Enqueue(at(0, 1), at(7, 1), 30)
	for c := 0; c < 6; c++ {
		stepChecked(t, net)
	}
	h = net.Enqueue(at(3, 1), at(6, 1), 2)
	stepChecked(t, net) // injected, offered, refused
	v = net.Enqueue(at(3, 0), at(3, 5), 5)
	return net, at, h, v
}

// wormOf finds the active worm carrying the packet.
func wormOf(t *testing.T, n *Network, p *Packet) *worm {
	t.Helper()
	for _, w := range activeWorms(t, n) {
		if w.pkt == p {
			return w
		}
	}
	t.Fatalf("%v is not in the network", p)
	return nil
}

// TestWakeHopOffersOnlyTheNewcomer: a header that hops into a router where a
// refused header waits is offered its candidates in the next cycle, and the
// refused header is not — the hop released nothing it wants.
func TestWakeHopOffersOnlyTheNewcomer(t *testing.T) {
	net, at, hp, vp := crossingNet(t)
	h := wormOf(t, net, hp)
	for c := 0; c < 10; c++ {
		if vp.Hops == 1 {
			break
		}
		stepChecked(t, net)
	}
	v := wormOf(t, net, vp)
	if vp.Hops != 1 || v.headRouter != at(3, 1) || v.outDir != noDirection {
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

// TestWakeReleaseOfUnwantedOutputOffersNobody: V's tail crossing (3,1)->(3,2)
// releases an output of H's router that H does not want. The release is
// recorded — the router is awake — but nobody there is due, and H stays
// refused until the channel it wants comes free.
func TestWakeReleaseOfUnwantedOutputOffersNobody(t *testing.T) {
	net, at, hp, vp := crossingNet(t)
	h := wormOf(t, net, hp)
	north := int(at(3, 1))*net.dims2 + int(topology.North)
	east := int(at(3, 1))*net.dims2 + int(topology.East)
	released := false
	for c := 0; c < 40 && !released; c++ {
		held := net.outOwner[north] != nil
		stepChecked(t, net)
		if held && net.outOwner[north] == nil {
			released = true
			if net.outOwner[east] == nil {
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
		wanted := net.outOwner[east] == nil
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

// TestWakeRoutingDelayOffersOnTheEligibleCycle: with a three-cycle routing
// decision a header is offered — and on an empty mesh granted and moved — on
// exactly the cycle its decision completes, cycle 3k for hop k, and its
// router stays awake while the decision is in the pipeline.
func TestWakeRoutingDelayOffersOnTheEligibleCycle(t *testing.T) {
	mesh := topology.NewMesh2D(8, 8)
	net := New(Config{Routing: routing.XY(mesh), RoutingDelay: 3})
	src, dst := mesh.ID(topology.Coord{0, 0}), mesh.ID(topology.Coord{5, 0})
	p := net.Enqueue(src, dst, 4)
	for net.InFlight() > 0 {
		c := net.Cycle()
		if c > 100 {
			t.Fatal("packet never delivered")
		}
		stepChecked(t, net)
		if want := int(min(c/3, 5)); p.Hops != want {
			t.Fatalf("after the step of cycle %d the header has made %d hops, want %d", c, p.Hops, want)
		}
		if p.Hops < 5 || c < 17 {
			// Still deciding, at the router p.Hops columns along (the last
			// decision, at the destination, completes in cycle 18).
			if r := int32(src) + int32(p.Hops); !net.wait.Awake(r) {
				t.Fatalf("after the step of cycle %d router %d sleeps with a header in its routing pipeline", c, r)
			}
		}
	}
	if want := int64(3*(5+1) + 4 - 1); p.Latency() != want {
		t.Errorf("latency %d, want %d", p.Latency(), want)
	}
}

// TestWakeRepairGrantsWithoutMasking is the regression test for the core
// telling the engine about a changed fault set only when fault masking was
// on: recovery without masking, the only candidate channel of a waiting
// header broken and then repaired by the plan — the header must be granted,
// and move, on the repair cycle, exactly as when every header was re-offered
// every cycle. A twin fault.State replays the plan's history ahead of the
// network to find the first break-and-repair.
func TestWakeRepairGrantsWithoutMasking(t *testing.T) {
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
		broke = -1
	}
	if broke < 0 {
		t.Fatal("the plan never breaks an eastbound channel in columns 1..3")
	}
	repair := broke + plan.Repair
	net := New(Config{
		Routing:   routing.XY(mesh),
		FaultPlan: plan,
		Recovery:  fault.Recovery{Enabled: true, StallCycles: 500},
	})
	if net.masked != nil {
		t.Fatal("the case needs fault masking off")
	}
	// One flit, injected right at the broken channel's router a few cycles
	// after the break, bound two columns east: xy offers it that channel
	// and nothing else.
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
			t.Fatalf("cycle %d: the header crossed a channel broken from %d to %d", c, broke, repair)
		case c == repair && p.Hops != 1:
			t.Fatalf("the header slept through the repair of its channel in cycle %d (hops %d)", repair, p.Hops)
		}
	}
	if p.Aborts != 0 {
		t.Fatalf("the header was aborted %d times; the case wants it waiting", p.Aborts)
	}
}

// TestWakeTimerLongWormSleepsThroughItsDrain: a 200-flit worm on a 3-hop path
// arrives with 196 flits still to be sent and sleeps through exactly those
// 196 cycles — on no draining list, its buffers and channels standing still —
// while FlitsConsumed grows by exactly one on every one of them, as when the
// worm was advanced every cycle. It wakes on the cycle its source sends
// nothing more: that step frees the injection buffer (cycle Length-1, the
// cycle the per-cycle drain freed it on), and three more free the path.
func TestWakeTimerLongWormSleepsThroughItsDrain(t *testing.T) {
	t.Run("shards-1", func(t *testing.T) {
		mesh := topology.NewMesh2D(8, 2)
		net := New(Config{Routing: routing.XY(mesh)})
		const length, hops = 200, 3
		src := mesh.ID(topology.Coord{1, 0})
		p := net.Enqueue(src, mesh.ID(topology.Coord{1 + hops, 0}), length)
		inj := net.bufID(src, net.dims2)
		// The header is injected and makes its first hop in cycle 0 and
		// one more per cycle; arbitration marks it arrived in cycle hops,
		// the first cycle a flit is consumed.
		const arrive, wake, last = hops, length - 1, hops + length - 1
		for net.InFlight() > 0 {
			c := net.Cycle()
			if c > last {
				t.Fatalf("cycle %d: not delivered", c)
			}
			before := net.FlitsConsumed()
			stepChecked(t, net)
			want := int64(0)
			if c >= arrive {
				want = 1
			}
			if got := net.FlitsConsumed() - before; got != want {
				t.Fatalf("cycle %d: FlitsConsumed grew by %d, want %d", c, got, want)
			}
			sleeping := c >= arrive && c < wake
			if got := net.sleepers.Len() == 1; got != sleeping {
				t.Fatalf("after cycle %d: %d worms on the timer, sleeping should be %v", c, net.sleepers.Len(), sleeping)
			}
			if wantDraining := c >= wake && c < last; (len(net.draining) == 1) != wantDraining {
				t.Fatalf("after cycle %d: %d worms on the draining list, want one exactly from cycle %d to %d", c, len(net.draining), wake, last-1)
			}
			if got, want := net.occupied[inj], c < wake; got != want {
				t.Fatalf("after cycle %d: injection buffer occupied = %v, want it freed by the step of cycle %d", c, got, wake)
			}
		}
		if p.Arrived != last || p.Hops != hops {
			t.Fatalf("delivered in cycle %d after %d hops, want cycle %d and %d hops", p.Arrived, p.Hops, last, hops)
		}
	})
}

// TestWakeTimerShortWormNeverSleeps: a 10-flit worm on a 12-hop path is fully
// injected long before its header arrives, so its tail moves from the first
// cycle of its drain and it goes straight onto the draining list — the timer is
// never touched (an entry pushed in one step is popped in a later one at the
// earliest, so an empty timer after every step means no push).
func TestWakeTimerShortWormNeverSleeps(t *testing.T) {
	mesh := topology.NewMesh2D(16, 2)
	net := New(Config{Routing: routing.XY(mesh)})
	p := net.Enqueue(mesh.ID(topology.Coord{1, 0}), mesh.ID(topology.Coord{13, 0}), 10)
	drained := false
	for net.InFlight() > 0 {
		if net.Cycle() > 100 {
			t.Fatal("not delivered")
		}
		stepChecked(t, net)
		if net.sleepers.Len() != 0 {
			t.Fatalf("after cycle %d: the worm is on the timer", net.Cycle()-1)
		}
		drained = drained || len(net.draining) == 1
	}
	if !drained {
		t.Fatal("the worm was never seen on the draining list")
	}
	if want := int64(12 + 10 - 1); p.Arrived != want || net.FlitsConsumed() != 10 {
		t.Fatalf("delivered in cycle %d with %d flits consumed, want cycle %d and 10", p.Arrived, net.FlitsConsumed(), want)
	}
}

// TestWakeTimerSameSourceTimeoutsRetryInInjectionOrder: two one-flit worms
// from one source run nose to tail into a channel a 400-flit worm is
// streaming through, stop in the same cycle, time out in the same cycle, and
// are retried from their source in the order they were injected in.
func TestWakeTimerSameSourceTimeoutsRetryInInjectionOrder(t *testing.T) {
	t.Run("shards-1", func(t *testing.T) {
		mesh := topology.NewMesh2D(16, 2)
		net := New(Config{
			Routing:        routing.XY(mesh),
			Recovery:       fault.Recovery{Enabled: true, StallCycles: 40},
			WatchdogCycles: -1,
		})
		at := func(x int) topology.NodeID { return mesh.ID(topology.Coord{x, 0}) }
		net.Enqueue(at(9), at(11), 400) // holds (9,0)->(10,0) for 400 cycles
		for c := 0; c < 5; c++ {
			stepChecked(t, net)
		}
		first := net.Enqueue(at(3), at(12), 1)
		second := net.Enqueue(at(3), at(12), 1)
		for first.Aborts == 0 {
			if net.Cycle() > 100 {
				t.Fatal("the first worm was never aborted")
			}
			stepChecked(t, net)
		}
		aborted := net.Cycle() - 1
		if second.Aborts != 1 || net.PacketsAborted() != 2 {
			t.Fatalf("cycle %d aborted the first worm but not both (second: %d aborts, %d in all)", aborted, second.Aborts, net.PacketsAborted())
		}
		for second.Injected < 0 {
			if net.Cycle() > aborted+100 {
				t.Fatal("the second worm was never retried")
			}
			stepChecked(t, net)
		}
		if first.Injected != aborted+16 || second.Injected != first.Injected+1 {
			t.Fatalf("aborted in cycle %d, retried in cycles %d and %d: want the first after its 16-cycle backoff and the second right behind it",
				aborted, first.Injected, second.Injected)
		}
	})
}

// TestWakeTimerVictimsAbortInInjectionOrder builds the case in which the
// timer's own order — (due cycle, push sequence) — is not injection order:
// worm a is injected before worm b, but b stops first, so b's timeout is
// re-armed first; then one cycle moves both for the last time, and their
// final timeouts fall due together with b's ahead of a's on the timer. The
// per-cycle scan aborted them in active-list order, a first, and so must
// recoveryPhase: abort order is the order of the Abort and Drop events.
//
// Rows 0 and 1 of a 16x2 xy mesh are both broken east of column 9. A
// one-flit blocker per row wedges at column 9 in cycle 3. a (injected in
// cycle 1 at column 0 of row 0) stops behind its blocker in cycle 8; b
// (injected in cycle 2 at column 4 of row 1) behind the other one in cycle 5.
// Their first timeouts pop in cycles 41 and 42 and are re-armed for 48 and
// 45. The blockers are aborted in cycle 43 and a and b both advance to column
// 9 in that step. b's timeout pops in cycle 45 and a's in 48, both re-armed
// for cycle 83: b's first.
func TestWakeTimerVictimsAbortInInjectionOrder(t *testing.T) {
	mesh := topology.NewMesh2D(16, 2)
	at := func(x, y int) topology.NodeID { return mesh.ID(topology.Coord{x, y}) }
	probe := &chaosProbe{ledgerProbe: &ledgerProbe{t: t}} // records the Abort events in order
	net := New(Config{
		Routing: routing.XY(mesh),
		Faults: []topology.Channel{
			{From: at(9, 0), Dir: topology.East},
			{From: at(9, 1), Dir: topology.East},
		},
		Recovery:       fault.Recovery{Enabled: true, StallCycles: 40},
		WatchdogCycles: -1,
		Probe:          probe,
	})
	net.Enqueue(at(5, 0), at(12, 0), 1)
	net.Enqueue(at(5, 1), at(12, 1), 1)
	stepChecked(t, net)
	a := net.Enqueue(at(0, 0), at(12, 0), 1)
	stepChecked(t, net)
	b := net.Enqueue(at(4, 1), at(12, 1), 1)
	for net.Cycle() <= 83 {
		stepChecked(t, net)
		if c := net.Cycle() - 1; c == 43 && (a.Hops != 9 || b.Hops != 5 || net.PacketsAborted() != 2) {
			t.Fatalf("cycle 43: a has made %d hops, b %d, %d worms aborted: the blockers were to go and a and b to reach column 9 together",
				a.Hops, b.Hops, net.PacketsAborted())
		}
	}
	if a.Aborts != 1 || b.Aborts != 1 || net.PacketsAborted() != 4 {
		t.Fatalf("after cycle 83: a aborted %d times, b %d, %d aborts in all; want both aborted in that cycle", a.Aborts, b.Aborts, net.PacketsAborted())
	}
	var want []string
	for _, src := range [][2]int{{5, 0}, {5, 1}, {0, 0}, {4, 1}} {
		want = append(want, abortKey(at(src[0], src[1]), at(12, src[1]), 1, 1))
	}
	if !reflect.DeepEqual(probe.aborts, want) {
		t.Fatalf("aborts %v, want %v: injection order, whatever order the timeouts were armed in", probe.aborts, want)
	}
}

// TestWakeTimerStaleStallEntryAbortsNobody: a worm that is delivered well
// inside the stall threshold leaves its timeout behind, and its struct is
// recycled for the source's next packet, which wedges. When the stale entry
// falls due it names a worm that is live, has not arrived and has not moved
// — but carries another packet: it must be dropped, not re-armed (the second
// entry would abort the worm a second time) and not honoured (the worm has
// not stood still for StallCycles yet). The wedged worm is aborted once, on
// its own timeout.
func TestWakeTimerStaleStallEntryAbortsNobody(t *testing.T) {
	net, mesh := brokenRowNet(t)
	at := func(x int) topology.NodeID { return mesh.ID(topology.Coord{x, 0}) }
	quick := net.Enqueue(at(2), at(5), 2)
	stepChecked(t, net)
	recycled := net.active.head
	for quick.Arrived < 0 {
		stepChecked(t, net)
	}
	if net.Cycle() > 10 {
		t.Fatalf("the quick packet took until cycle %d", net.Cycle())
	}
	for net.Cycle() < 20 {
		stepChecked(t, net)
	}
	wedged := net.Enqueue(at(2), at(12), 1) // injected in cycle 20, stuck at (9,0) from cycle 26
	stepChecked(t, net)
	if net.active.head != recycled || recycled.pkt != wedged {
		t.Fatal("the second packet did not get the first one's worm")
	}
	for net.Cycle() <= 26+40 {
		c := net.Cycle()
		stepChecked(t, net) // (f) of the lost-wake oracle counts the worm's live entries
		if want := c >= 26+40; (wedged.Aborts == 1) != want {
			t.Fatalf("after cycle %d the wedged worm has %d aborts; its header stopped in cycle 26 and the threshold is 40 (the stale entry fell due in cycle 40)",
				c, wedged.Aborts)
		}
	}
	if net.PacketsAborted() != 1 {
		t.Fatalf("%d aborts, want 1", net.PacketsAborted())
	}
}

// longWorkload drives a west-first 8x8 mesh with a mix of 10- and 200-flit
// messages, many of whose worms sleep on the timer while their sources send,
// calls Close before the step of cycle closeAt (never if it is negative),
// and records every delivery and the flits consumed by the end of every
// cycle, with the number of worms asleep when Close was called.
func longWorkload(t *testing.T, closeAt int64) (trace []string, sleptAtClose int) {
	t.Helper()
	net := New(Config{Routing: routing.WestFirst(topology.NewMesh2D(8, 8)), Seed: 3})
	rng := rand.New(rand.NewSource(41))
	const cycles = 1200
	for net.Cycle() < cycles || net.InFlight() > 0 {
		c := net.Cycle()
		if c > cycles+100000 {
			t.Fatal("workload did not drain")
		}
		if c == closeAt {
			sleptAtClose = net.sleepers.Len()
			net.Close()
		}
		if c < cycles && c%8 == 0 {
			src, dst := topology.NodeID(rng.Intn(64)), topology.NodeID(rng.Intn(64))
			if src != dst {
				net.Enqueue(src, dst, []int{10, 200}[rng.Intn(2)])
			}
		}
		stepChecked(t, net)
		for _, p := range net.TakeDelivered() {
			trace = append(trace, fmt.Sprintf("%d:%d@%d+%d/%d", c, p.ID, p.Injected, p.Arrived, p.Hops))
		}
		trace = append(trace, fmt.Sprintf("%d flits %d", c, net.FlitsConsumed()))
	}
	return trace, sleptAtClose
}

// TestWakeTimerCloseMidSleepMatchesSerial: Close, a no-op kept for callers
// written against an interface with Close, called while several worms sleep
// on the timer, leaves them asleep on it: every packet is delivered and
// every flit counted on the cycle a never-closed run does.
func TestWakeTimerCloseMidSleepMatchesSerial(t *testing.T) {
	serial, _ := longWorkload(t, -1)
	closed, slept := longWorkload(t, 600)
	if slept < 2 {
		t.Fatalf("%d worms were asleep when the network was closed; the case needs several", slept)
	}
	if !reflect.DeepEqual(serial, closed) {
		t.Fatalf("closed mid-sleep, the run diverges from the never-closed one: %s", firstDiff(serial, closed))
	}
}

// wakeTrace is what wakeWorkload observes of a run.
type wakeTrace struct {
	deliveries []string
	batches    int // TakeDelivered calls that returned two packets or more
	totals     string
}

// wakeWorkload drives a deterministic workload far past saturation — uniform
// random traffic on an 8x8 west-first mesh, three messages a cycle — then
// lets it drain, and records everything observable.
func wakeWorkload(t *testing.T, cfg Config, cycles int, check bool) wakeTrace {
	t.Helper()
	cfg.Routing = routing.WestFirst(topology.NewMesh2D(8, 8))
	net := New(cfg)
	rng := rand.New(rand.NewSource(77))
	var tr wakeTrace
	for c := 0; c < cycles || net.InFlight() > 0; c++ {
		if c > cycles+20000 {
			t.Fatal("workload did not drain")
		}
		if c < cycles {
			for k := 0; k < 3; k++ {
				src, dst := topology.NodeID(rng.Intn(64)), topology.NodeID(rng.Intn(64))
				if src != dst {
					net.Enqueue(src, dst, 1+rng.Intn(12))
				}
			}
		}
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
		if check {
			checkInvariants(t, net)
		}
		batch := net.TakeDelivered()
		if len(batch) > 1 {
			tr.batches++
		}
		for i, p := range batch {
			if i > 0 && !injectedBefore(batch[i-1], p) {
				t.Fatalf("cycle %d: TakeDelivered returns %v (injected %d at %d) before %v (injected %d at %d): not injection order",
					c, batch[i-1], batch[i-1].Injected, batch[i-1].Src, p, p.Injected, p.Src)
			}
			tr.deliveries = append(tr.deliveries, fmt.Sprintf("%d:%d@%d+%d/%d", c, p.ID, p.Injected, p.Arrived, p.Hops))
		}
	}
	tr.totals = fmt.Sprintf("delivered %d flits %d", net.PacketsDelivered(), net.FlitsConsumed())
	return tr
}

// TestWakeProbeOnAndOffAgree: a probe rides the same walk of the awake
// routers as no probe, learning of each wait when it ends; the two runs
// must grant identically — every packet delivered on the same cycle with
// the same hops — and the probe's blocked spans must add up to exactly the
// blocked header-cycles the every-cycle rescan counted on this workload
// (the count below was taken on the commit before wake-on-release), which
// drains.
func TestWakeProbeOnAndOffAgree(t *testing.T) {
	const parentBlocked = 89692
	off := wakeWorkload(t, Config{Seed: 3}, 1500, true)
	probe := &ledgerProbe{t: t}
	on := wakeWorkload(t, Config{Seed: 3, Probe: probe}, 1500, true)
	if !reflect.DeepEqual(off, on) {
		t.Fatalf("probe-off and probe-on runs diverge:\n  off: %d deliveries, %s\n  on:  %d deliveries, %s\n  first difference: %s",
			len(off.deliveries), off.totals, len(on.deliveries), on.totals, firstDiff(off.deliveries, on.deliveries))
	}
	if probe.blocked != parentBlocked {
		t.Errorf("probe saw %d blocked header-cycles, the per-cycle rescan saw %d", probe.blocked, parentBlocked)
	}
}

func firstDiff(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("#%d %q vs %q", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
}

// TestWakeDeliveredInInjectionOrder: packets completing in one cycle come
// out of TakeDelivered in the order their worms were injected — the order
// the retired active-list scan produced, which the callers' floating-point
// latency sums depend on — whatever order movement finished them in.
// (wakeWorkload checks each batch.)
func TestWakeDeliveredInInjectionOrder(t *testing.T) {
	tr := wakeWorkload(t, Config{Seed: 3}, 1500, false)
	if tr.batches < 100 {
		t.Fatalf("only %d cycles delivered several packets; the case no longer exercises the ordering", tr.batches)
	}
}

// TestLostWakeSoak runs the lost-wake oracle after every cycle of soaks
// across what can wake a sleeper:
// transient faults breaking and repairing channels, recovery aborting and
// retrying worms, fault masking re-deciding candidates, routing delay
// holding routers awake and a randomized output policy.
func TestLostWakeSoak(t *testing.T) {
	mesh := topology.NewMesh2D(6, 6)
	cube := topology.NewHypercube(5)
	plan := fault.Plan{Rate: 4e-5, Repair: 150, Seed: 11}
	rec := fault.Recovery{Enabled: true, StallCycles: 60, MaxRetries: 6}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Routing: routing.WestFirst(mesh)}},
		{"delay", Config{Routing: routing.NegativeFirst(mesh), RoutingDelay: 3}},
		{"random-output", Config{Routing: routing.WestFirst(mesh), Output: RandomOutput{}, Input: OldestFirst{}}},
		{"recovery", Config{Routing: routing.XY(mesh), FaultPlan: plan, Recovery: rec}},
		{"recovery-delay", Config{Routing: routing.WestFirst(mesh), FaultPlan: plan, Recovery: rec, RoutingDelay: 2}},
		{"masked", Config{Routing: routing.NegativeFirst(mesh), FaultPlan: plan, Recovery: rec,
			FaultRouting: fault.RoutingPolicy{Visibility: fault.VisibilityKHop, MisrouteLimit: 3}}},
		{"cube-recovery", Config{Routing: routing.PCube(cube), FaultPlan: plan, Recovery: rec}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Seed = 4
			net := New(tc.cfg)
			nodes := tc.cfg.Routing.Topology().Nodes()
			rng := rand.New(rand.NewSource(31))
			for c := 0; c < 4000 || net.InFlight() > 0; c++ {
				if c > 400000 {
					t.Fatalf("did not drain: %d in flight", net.InFlight())
				}
				if c < 4000 && c%2 == 0 {
					// Bursts past saturation, then lulls that let it drain.
					for k := 0; k < 1+3*(c/500%2); k++ {
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

// TestLostWakeOracleCatches shows the oracle is not vacuous: it wedges a
// network so that there is one sleeper of each kind, loses each sleeper's
// wake by hand, and demands that the oracle object every time.
func TestLostWakeOracleCatches(t *testing.T) {
	build := func() (*Network, *topology.Mesh) {
		net, mesh := brokenRowNet(t)
		at := func(x int) topology.NodeID { return mesh.ID(topology.Coord{x, 0}) }
		net.Enqueue(at(4), at(12), 3) // wedges at (9,0), refused
		net.Enqueue(at(3), at(12), 1) // granted, stalled on the blocker's tail
		net.Enqueue(at(3), at(12), 1) // queued behind the follower... and injected once it has left
		net.Enqueue(at(3), at(12), 5) // queued: five flits keep the injection buffer of (3,0) occupied
		net.Enqueue(at(3), at(12), 1) // queued behind an occupied injection buffer
		// Row 1 is whole: a 100-flit worm three hops along it arrives in
		// cycle 3 and sleeps on the timer until cycle 99.
		net.Enqueue(mesh.ID(topology.Coord{0, 1}), mesh.ID(topology.Coord{3, 1}), 100)
		for c := 0; c < 30; c++ {
			if c == 10 {
				// A latecomer at (8,0) wants (8,0)->(9,0), which the wedged
				// blocker holds, and is refused.
				net.Enqueue(at(8), at(12), 1)
			}
			stepChecked(t, net)
		}
		return net, mesh
	}
	objects := func(name string, net *Network, want string) {
		t.Helper()
		err := lostWake(net, activeWorms(t, net))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: oracle says %v, want an objection containing %q", name, err, want)
		}
	}

	net, mesh := build()
	var granted, waiting, late, sleeping *worm
	for _, w := range activeWorms(t, net) {
		switch {
		case w.arrived:
			sleeping = w
		case w.outDir != noDirection:
			granted = w
		case w.headRouter == mesh.ID(topology.Coord{9, 0}):
			waiting = w
		case w.headRouter == mesh.ID(topology.Coord{8, 0}):
			late = w
		}
	}
	if granted == nil || waiting == nil || late == nil || sleeping == nil || sleeping.wakeAt != 99 {
		t.Fatal("the wedge did not produce a granted, two refused and a timed sleeper")
	}
	if net.wait.Awake(int32(waiting.headRouter)) {
		t.Fatal("the refused header's router is awake")
	}

	// (a) The buffer a granted worm waits for is vacated without a wake.
	net.occupied[granted.target] = false
	objects("vacated target", net, "its target buffer is free")
	net.occupied[granted.target] = true

	// (b) The channel a refused header waits for comes back without a wake.
	k := int(waiting.headRouter)*net.dims2 + int(topology.East)
	net.faulted[k] = false
	objects("repaired channel", net, "candidate output")
	net.faulted[k] = true

	// (b) The channel the latecomer wants is released without telling the
	// wait table; told, the table has the latecomer due and the oracle is
	// content.
	k = int(late.headRouter)*net.dims2 + int(topology.East)
	holder := net.outOwner[k]
	if holder == nil || net.wait.Due(&late.wait) {
		t.Fatal("the latecomer is not asleep behind a held channel")
	}
	net.outOwner[k] = nil
	objects("dropped release", net, "candidate output")
	net.wait.Release(int32(late.headRouter), int(topology.East))
	if err := lostWake(net, activeWorms(t, net)); err != nil {
		t.Errorf("with the release recorded the oracle still objects: %v", err)
	}
	net.outOwner[k] = holder

	// (c) An arrived worm is on no draining list and no timer; the sleeper's
	// timer entry is dropped; it is due on another cycle than the one its
	// source sends its last flit in; the sleeper is also on the draining list.
	stalls := net.stalls
	waiting.arrived = true
	net.stalls = engine.Timers[stall]{} // (its stall entry, now stale, would trip (f) first)
	objects("arrived worm", net, "draining list 0 times and on the timer 0 times")
	waiting.arrived = false
	net.stalls = stalls

	sleepers := net.sleepers
	net.sleepers = engine.Timers[*worm]{}
	objects("dropped timer entry", net, "draining list 0 times and on the timer 0 times")
	net.sleepers.Push(98, sleeping)
	objects("early timer entry", net, "due at 98, the worm says 99")
	net.sleepers = sleepers
	sleeping.wakeAt = 98
	objects("early wake", net, "the worm says 98")
	sleeping.wakeAt = 99
	net.draining = append(net.draining, sleeping)
	objects("sleeper also draining", net, "draining list 1 times and on the timer 1 times")
	net.draining = net.draining[:0]

	// (d) An injection buffer is vacated without waking its source.
	inj := net.bufID(mesh.ID(topology.Coord{3, 0}), net.dims2)
	if !net.occupied[inj] || net.core.QueueLen(mesh.ID(topology.Coord{3, 0})) == 0 || net.core.OnWorklist(mesh.ID(topology.Coord{3, 0})) {
		t.Fatal("node (3,0) is not asleep behind its occupied injection buffer")
	}
	net.occupied[inj] = false
	objects("vacated injection buffer", net, "off the worklist")
	net.occupied[inj] = true

	// (f) A worm that can still time out has lost its stall entry, or has two.
	net.stalls = engine.Timers[stall]{}
	objects("dropped stall entry", net, "lost timeout")
	net.stalls = stalls
	// (Due after every other entry, the copy lands behind them in the heap's
	// array and moves none: restoring the saved header undoes the push.)
	net.stalls.Push(1<<40, stall{w: waiting, id: waiting.pkt.ID})
	objects("doubled stall entry", net, "lost timeout")
	net.stalls = stalls

	// (e) A recycled worm is still referred to.
	net.free = append(net.free, granted)
	objects("recycled worm", net, "free list")
	net.free = net.free[:len(net.free)-1]

	if err := lostWake(net, activeWorms(t, net)); err != nil {
		t.Fatalf("after undoing every sabotage the oracle still objects: %v", err)
	}
}
