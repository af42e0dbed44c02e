package vcnet

// Wake-edge tests for the sleepers this engine has: refused headers, woken
// when an output virtual channel of their router is released or the fault set
// changes, and sources behind an occupied injection buffer, woken when the
// tail leaves it. (Flits are swept every cycle: bandwidth arbitration among
// virtual channels is order-dependent.) The cases mirror internal/network's
// wake_test.go on the algorithm lifted to one virtual channel; the lost-wake
// oracle runs after every step.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"turnmodel/internal/fault"
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
	defer net.Close()
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
// event every cycle); both walks must grant identically, serial and sharded,
// and the probed run must count exactly the blocked header-cycles the
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
	sharded, shardedTotals := wakeWorkload(t, Config{Shards: 3}, 1000)
	if !reflect.DeepEqual(off, sharded) || offTotals != shardedTotals {
		t.Fatalf("serial and sharded runs diverge: %d deliveries, %s vs %d deliveries, %s",
			len(off), offTotals, len(sharded), shardedTotals)
	}
}

// TestLostWakeVCSoak runs the lost-wake oracle after every cycle of soaks
// with no probe attached (the chaos soaks carry one, which turns the
// awake-router walk into the full walk): transient faults, recovery's aborts
// and retries, fault masking and the sharded step.
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
		{"recovery-sharded", Config{Routing: vc.DoubleY(mesh), FaultPlan: plan, Recovery: rec, Shards: 4}},
		{"masked-sharded", Config{Routing: vc.Lift(routing.NegativeFirst(mesh)), FaultPlan: plan, Recovery: rec,
			FaultRouting: fault.RoutingPolicy{Visibility: fault.VisibilityKHop, MisrouteLimit: 3}, Shards: 3}},
		{"torus", Config{Routing: vc.DatelineDOR(topology.NewKaryNCube(5, 2)), FaultPlan: plan, Recovery: rec, Shards: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := New(tc.cfg)
			defer net.Close()
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
