package network

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// chaosProbe extends the ledger with dropped-flit accounting so the soak
// can prove flit conservation across abort/retry/drop, and with the order of
// the current step's Abort events so it can hold that order to the scan of
// the active list that stall timers replaced (see stepAbortOrderChecked).
type chaosProbe struct {
	*ledgerProbe
	droppedFlits int64
	aborts       []string
}

func abortKey(src, dst topology.NodeID, length, attempt int) string {
	return fmt.Sprintf("%d>%d/%d#%d", src, dst, length, attempt)
}

func (p *chaosProbe) Abort(cycle int64, src, dst topology.NodeID, length, attempt int) {
	p.ledgerProbe.Abort(cycle, src, dst, length, attempt)
	p.aborts = append(p.aborts, abortKey(src, dst, length, attempt))
}

// stepAbortOrderChecked steps once and demands that the step's Abort events
// name exactly the worms stallVictims names, in its order: the order of the
// active list, which is the order the retry lists and the probe have always
// seen.
func stepAbortOrderChecked(t *testing.T, n *Network, probe *chaosProbe) error {
	t.Helper()
	var want []string
	for _, p := range stallVictims(n) {
		want = append(want, abortKey(p.Src, p.Dst, p.Length, p.Aborts+1))
	}
	probe.aborts = probe.aborts[:0]
	err := n.Step()
	if !slices.Equal(probe.aborts, want) {
		t.Fatalf("cycle %d: the step aborted %v, the scan of the active list says %v", n.core.Cycle-1, probe.aborts, want)
	}
	return err
}

func (p *chaosProbe) Drop(cycle int64, src, dst topology.NodeID, length int, reason metrics.DropReason) {
	p.ledgerProbe.Drop(cycle, src, dst, length, reason)
	p.droppedFlits += int64(length)
}

// TestChaosSoakRecovery hammers mesh and torus networks with random
// transient link faults under load, with deadlock recovery on, and checks
// the structural invariants plus packet conservation every few cycles:
//
//	enqueued == delivered + dropped + in-flight
//
// at all times, and after the drain every enqueued flit is accounted for
// as delivered or dropped — aborts and retries lose nothing.
func TestChaosSoakRecovery(t *testing.T) {
	cases := []struct {
		name string
		alg  routing.Algorithm
	}{
		{"mesh-west-first", routing.WestFirst(topology.NewMesh2D(4, 4))},
		{"mesh-negative-first", routing.NegativeFirst(topology.NewMesh2D(4, 4))},
		{"torus-negative-first", routing.NegativeFirstTorus(topology.NewKaryNCube(4, 2))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			probe := &chaosProbe{ledgerProbe: &ledgerProbe{t: t}}
			net := New(Config{
				Routing: tc.alg,
				Seed:    11,
				Probe:   probe,
				// Aggressive enough that faults, aborts and retries all
				// actually happen within the soak window.
				FaultPlan: fault.Plan{Rate: 5e-5, Repair: 300, Seed: 99},
				Recovery:  fault.Recovery{Enabled: true, StallCycles: 200},
			})
			topo := tc.alg.Topology()
			rng := rand.New(rand.NewSource(21))
			enqueued := int64(0)
			enqueuedFlits := int64(0)

			conserve := func(step int) {
				t.Helper()
				got := net.PacketsDelivered() + net.PacketsDropped() + int64(net.InFlight())
				if enqueued != got {
					t.Fatalf("step %d: enqueued=%d but delivered=%d dropped=%d in-flight=%d",
						step, enqueued, net.PacketsDelivered(), net.PacketsDropped(), net.InFlight())
				}
			}

			for c := 0; c < 5000; c++ {
				if c%2 == 0 {
					src := topology.NodeID(rng.Intn(topo.Nodes()))
					dst := topology.NodeID(rng.Intn(topo.Nodes()))
					if src != dst {
						length := 1 + rng.Intn(20)
						net.Enqueue(src, dst, length)
						enqueued++
						enqueuedFlits += int64(length)
					}
				}
				if err := stepAbortOrderChecked(t, net, probe); err != nil {
					t.Fatalf("recovery mode returned an error: %v", err)
				}
				checkInvariants(t, net)
				conserve(c)
			}
			if probe.faults == 0 {
				t.Fatal("no faults fired; soak exercised nothing")
			}

			// Drain: stop offering load; transient faults keep firing but
			// repair, and retries are capped, so the network must empty.
			for i := 0; i < 400000 && net.InFlight() > 0; i++ {
				if err := stepAbortOrderChecked(t, net, probe); err != nil {
					t.Fatalf("drain: %v", err)
				}
				checkInvariants(t, net)
			}
			if net.InFlight() != 0 {
				t.Fatalf("network did not drain: %d in flight", net.InFlight())
			}
			conserve(-1)
			for buf, occ := range net.occupied {
				if occ {
					t.Fatalf("buffer %d still occupied after drain", buf)
				}
			}
			for key, owner := range net.outOwner {
				if owner != nil {
					t.Fatalf("channel %d still owned after drain", key)
				}
			}
			if got := probe.deliveredFlits + probe.droppedFlits; got != enqueuedFlits {
				t.Errorf("flits delivered %d + dropped %d = %d, want enqueued %d",
					probe.deliveredFlits, probe.droppedFlits, got, enqueuedFlits)
			}
			if probe.deliveredFlits != net.FlitsConsumed() {
				t.Errorf("probe delivered %d flits, engine consumed %d",
					probe.deliveredFlits, net.FlitsConsumed())
			}
			if probe.aborted > 0 && probe.retried+probe.dropped == 0 {
				t.Error("aborts happened but no retries or drops followed")
			}
			t.Logf("%s: enqueued=%d delivered=%d dropped=%d aborted=%d retried=%d faults=%d repairs=%d",
				tc.name, enqueued, probe.delivered, probe.dropped, probe.aborted,
				probe.retried, probe.faults, probe.repairs)
		})
	}
}

// TestUnreachableDestinationDropped pins the drop accounting for packets
// that cannot be delivered:
//
//  1. A packet toward a failed node is dropped at injection time, not
//     left to deadlock or retry forever.
//  2. A packet whose routing function has exactly one path (xy) and loses
//     it to a static fault is dropped after its first abort, because the
//     routing-aware reachability check sees no surviving path.
func TestUnreachableDestinationDropped(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)

	t.Run("failed-node", func(t *testing.T) {
		probe := &chaosProbe{ledgerProbe: &ledgerProbe{t: t}}
		net := New(Config{
			Routing:   mustAlg(t, "west-first", mesh),
			Probe:     probe,
			FaultPlan: fault.Plan{Nodes: []topology.NodeID{5}},
			Recovery:  fault.Recovery{Enabled: true},
		})
		p := net.Enqueue(0, 5, 4)
		run(t, net, 100)
		if net.PacketsDropped() != 1 || probe.dropped != 1 {
			t.Fatalf("dropped %d (probe %d), want 1", net.PacketsDropped(), probe.dropped)
		}
		if p.Arrived >= 0 || p.Injected >= 0 {
			t.Errorf("packet toward failed node was injected (injected=%d arrived=%d)", p.Injected, p.Arrived)
		}
		if net.PacketsAborted() != 0 {
			t.Errorf("injection-time drop should not need an abort, got %d", net.PacketsAborted())
		}
	})

	t.Run("xy-only-path-broken", func(t *testing.T) {
		probe := &chaosProbe{ledgerProbe: &ledgerProbe{t: t}}
		net := New(Config{
			Routing: mustAlg(t, "xy", mesh),
			Probe:   probe,
			FaultPlan: fault.Plan{Static: []topology.Channel{{
				From: mesh.ID(topology.Coord{1, 0}), To: mesh.ID(topology.Coord{2, 0}), Dir: topology.East,
			}}},
			Recovery: fault.Recovery{Enabled: true, StallCycles: 50},
		})
		src := mesh.ID(topology.Coord{0, 0})
		dst := mesh.ID(topology.Coord{3, 2})
		p := net.Enqueue(src, dst, 4)
		run(t, net, 2000)
		if net.PacketsDropped() != 1 {
			t.Fatalf("dropped %d, want 1 (xy has no surviving path)", net.PacketsDropped())
		}
		if net.PacketsAborted() != 1 {
			t.Errorf("aborted %d, want exactly 1 (reachability check fires on first abort)", net.PacketsAborted())
		}
		if net.PacketsRetried() != 0 {
			t.Errorf("retried %d, want 0: retrying an unreachable destination is the bug this test pins", net.PacketsRetried())
		}
		if p.Arrived >= 0 {
			t.Error("packet delivered across a broken only-path")
		}
		if net.InFlight() != 0 {
			t.Errorf("%d still in flight after drop", net.InFlight())
		}
	})

	t.Run("adaptive-survives-same-fault", func(t *testing.T) {
		// The same fault under west-first is routable; recovery must not
		// drop anything.
		net := New(Config{
			Routing: mustAlg(t, "west-first", mesh),
			FaultPlan: fault.Plan{Static: []topology.Channel{{
				From: mesh.ID(topology.Coord{1, 0}), To: mesh.ID(topology.Coord{2, 0}), Dir: topology.East,
			}}},
			Recovery: fault.Recovery{Enabled: true, StallCycles: 50},
		})
		p := net.Enqueue(mesh.ID(topology.Coord{0, 0}), mesh.ID(topology.Coord{3, 2}), 4)
		run(t, net, 2000)
		if p.Arrived < 0 {
			t.Fatal("west-first did not deliver around the fault")
		}
		if net.PacketsDropped() != 0 {
			t.Errorf("dropped %d, want 0", net.PacketsDropped())
		}
	})
}

// TestRecoveryBreaksDeadlock pins the fail-stop/recovery contrast on the
// same permanently wedged scenario: an xy worm whose only path is broken
// stalls forever, so fail-stop mode must report it through the watchdog
// while recovery mode must abort it, drop it as unreachable, and keep the
// run error-free.
func TestRecoveryBreaksDeadlock(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	broken := topology.Channel{From: mesh.ID(topology.Coord{1, 0}), To: mesh.ID(topology.Coord{2, 0}), Dir: topology.East}

	failStop := New(Config{Routing: mustAlg(t, "xy", mesh), Faults: []topology.Channel{broken}, WatchdogCycles: 500})
	failStop.Enqueue(mesh.ID(topology.Coord{0, 0}), mesh.ID(topology.Coord{3, 0}), 4)
	sawError := false
	for i := 0; i < 5000; i++ {
		if err := failStop.Step(); err != nil {
			sawError = true
			break
		}
	}
	if !sawError {
		t.Fatal("fail-stop mode should report the stalled worm")
	}

	rec := New(Config{
		Routing:   mustAlg(t, "xy", mesh),
		Faults:    []topology.Channel{broken},
		Recovery:  fault.Recovery{Enabled: true, StallCycles: 100},
		FaultPlan: fault.Plan{},
	})
	rec.Enqueue(mesh.ID(topology.Coord{0, 0}), mesh.ID(topology.Coord{3, 0}), 4)
	for i := 0; i < 5000; i++ {
		if err := rec.Step(); err != nil {
			t.Fatalf("recovery mode returned an error: %v", err)
		}
	}
	if rec.PacketsDropped() != 1 {
		t.Errorf("dropped %d, want 1", rec.PacketsDropped())
	}
	if rec.InFlight() != 0 {
		t.Errorf("%d in flight after recovery", rec.InFlight())
	}
}
