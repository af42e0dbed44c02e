package network

// One test per wake edge. Whatever waits in this engine sleeps — a refused
// header at its router, a granted worm on its target buffer, a source behind
// its injection buffer — and is looked at again only when the one release it
// waits for wakes it. Each case below builds, by construction, a sleeper and
// the release that must wake it, and pins the cycle on which it moves to the
// cycle the every-cycle rescans of the previous engine moved it on. The
// lost-wake oracle (lostWake in invariant_test.go) runs after every step of
// every case, and TestLostWakeOracleCatches shows that it is not vacuous.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"turnmodel/internal/fault"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// stepChecked steps once and runs every invariant.
func stepChecked(t *testing.T, n *Network) {
	t.Helper()
	if err := n.Step(); err != nil {
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
func brokenRowNet(t *testing.T, shards int) (*Network, *topology.Mesh) {
	t.Helper()
	mesh := topology.NewMesh2D(16, 2)
	net := New(Config{
		Routing:        routing.XY(mesh),
		Faults:         []topology.Channel{{From: mesh.ID(topology.Coord{9, 0}), Dir: topology.East}},
		Recovery:       fault.Recovery{Enabled: true, StallCycles: 40, MaxRetries: 0},
		WatchdogCycles: -1,
		Shards:         shards,
	})
	t.Cleanup(net.Close)
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
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			net, mesh := brokenRowNet(t, shards)
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
	defer net.Close()
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

// TestWakeProbeOnAndOffAgree: a probe turns arbitration's walk of the awake
// routers into a walk of every waiter (a blocked header is a Blocked event
// every cycle it waits); the two walks must grant identically — every packet
// delivered on the same cycle with the same hops — and the probed run must
// report exactly as many blocked header-cycles as the every-cycle rescan it
// replaces did on this workload (the count below was taken on the commit
// before wake-on-release).
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
	sharded := wakeWorkload(t, Config{Seed: 3, Shards: 3}, 1500, true)
	if !reflect.DeepEqual(off, sharded) {
		t.Fatalf("serial and sharded runs diverge: %s", firstDiff(off.deliveries, sharded.deliveries))
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
// latency sums depend on — whatever order movement finished them in, at
// every shard count. (wakeWorkload checks each batch.)
func TestWakeDeliveredInInjectionOrder(t *testing.T) {
	for _, shards := range []int{1, 2, 5} {
		tr := wakeWorkload(t, Config{Seed: 3, Shards: shards}, 1500, false)
		if tr.batches < 100 {
			t.Fatalf("shards=%d: only %d cycles delivered several packets; the case no longer exercises the ordering", shards, tr.batches)
		}
	}
}

// TestLostWakeSoak runs the lost-wake oracle after every cycle of soaks
// that have no probe attached — the chaos soaks all carry one, which turns
// the awake-router walk into the full walk — across what can wake a sleeper:
// transient faults breaking and repairing channels, recovery aborting and
// retrying worms, fault masking re-deciding candidates, routing delay
// holding routers awake, a randomized output policy and the sharded step.
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
		{"recovery-delay-sharded", Config{Routing: routing.WestFirst(mesh), FaultPlan: plan, Recovery: rec, RoutingDelay: 2, Shards: 4}},
		{"masked-sharded", Config{Routing: routing.NegativeFirst(mesh), FaultPlan: plan, Recovery: rec,
			FaultRouting: fault.RoutingPolicy{Visibility: fault.VisibilityKHop, MisrouteLimit: 3}, Shards: 3}},
		{"cube-recovery", Config{Routing: routing.PCube(cube), FaultPlan: plan, Recovery: rec, Shards: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Seed = 4
			net := New(tc.cfg)
			defer net.Close()
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
		net, mesh := brokenRowNet(t, 1)
		at := func(x int) topology.NodeID { return mesh.ID(topology.Coord{x, 0}) }
		net.Enqueue(at(4), at(12), 3) // wedges at (9,0), refused
		net.Enqueue(at(3), at(12), 1) // granted, stalled on the blocker's tail
		net.Enqueue(at(3), at(12), 1) // queued behind the follower... and injected once it has left
		net.Enqueue(at(3), at(12), 5) // queued: five flits keep the injection buffer of (3,0) occupied
		net.Enqueue(at(3), at(12), 1) // queued behind an occupied injection buffer
		for c := 0; c < 30; c++ {
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
	var granted, waiting *worm
	for _, w := range activeWorms(t, net) {
		switch {
		case w.outDir != noDirection:
			granted = w
		case w.headRouter == mesh.ID(topology.Coord{9, 0}):
			waiting = w
		}
	}
	if granted == nil || waiting == nil {
		t.Fatal("the wedge did not produce a granted and a refused sleeper")
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

	// (c) An arrived worm falls off the draining lists.
	waiting.arrived = true
	objects("arrived worm", net, "draining lists 0 times")
	waiting.arrived = false

	// (d) An injection buffer is vacated without waking its source.
	inj := net.bufID(mesh.ID(topology.Coord{3, 0}), net.dims2)
	if !net.occupied[inj] || net.core.QueueLen(mesh.ID(topology.Coord{3, 0})) == 0 || net.core.OnWorklist(mesh.ID(topology.Coord{3, 0})) {
		t.Fatal("node (3,0) is not asleep behind its occupied injection buffer")
	}
	net.occupied[inj] = false
	objects("vacated injection buffer", net, "off the worklist")
	net.occupied[inj] = true

	// (e) A recycled worm is still referred to.
	net.dom[0].free = append(net.dom[0].free, granted)
	objects("recycled worm", net, "free list")
	net.dom[0].free = net.dom[0].free[:len(net.dom[0].free)-1]

	if err := lostWake(net, activeWorms(t, net)); err != nil {
		t.Fatalf("after undoing every sabotage the oracle still objects: %v", err)
	}
}
