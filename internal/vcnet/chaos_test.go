package vcnet

import (
	"math/rand"
	"testing"

	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/topology"
	"turnmodel/internal/vc"
)

// chaosProbe extends the ledger with dropped-flit accounting so the soak
// can prove flit conservation across abort/retry/drop.
type chaosProbe struct {
	*ledgerProbe
	droppedFlits int64
}

func (p *chaosProbe) Drop(cycle int64, src, dst topology.NodeID, length int, reason metrics.DropReason) {
	p.ledgerProbe.Drop(cycle, src, dst, length, reason)
	p.droppedFlits += int64(length)
}

// TestVCChaosSoakRecovery is the virtual-channel mirror of the wormhole
// engine's chaos soak: random transient link faults under load with
// recovery on, structural invariants and packet conservation
// (enqueued == delivered + dropped + in-flight) checked throughout, and
// full flit accounting after the drain.
func TestVCChaosSoakRecovery(t *testing.T) {
	cases := []struct {
		name string
		alg  vc.Algorithm
	}{
		{"mesh-double-y", vc.DoubleY(topology.NewMesh2D(4, 4))},
		{"torus-dateline-dor", vc.DatelineDOR(topology.NewKaryNCube(4, 2))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			probe := &chaosProbe{ledgerProbe: &ledgerProbe{t: t}}
			net := New(Config{
				Routing:   tc.alg,
				Probe:     probe,
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
				if err := net.Step(); err != nil {
					t.Fatalf("recovery mode returned an error: %v", err)
				}
				checkInvariants(t, net)
				conserve(c)
			}
			if probe.faults == 0 {
				t.Fatal("no faults fired; soak exercised nothing")
			}

			for i := 0; i < 400000 && net.InFlight() > 0; i++ {
				if err := net.Step(); err != nil {
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
			for key, owner := range net.owner {
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
			t.Logf("%s: enqueued=%d delivered=%d dropped=%d aborted=%d retried=%d faults=%d",
				tc.name, enqueued, probe.delivered, probe.dropped, probe.aborted,
				probe.retried, probe.faults)
		})
	}
}

// TestVCAdaptiveRoutesAroundFault mirrors the wormhole engine's
// fault-tolerance test: with one east channel broken, fully adaptive
// double-y delivers along an alternative minimal path.
func TestVCAdaptiveRoutesAroundFault(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	broken := topology.Channel{
		From: mesh.ID(topology.Coord{1, 0}), To: mesh.ID(topology.Coord{2, 0}), Dir: topology.East,
	}
	src := mesh.ID(topology.Coord{0, 0})
	dst := mesh.ID(topology.Coord{3, 2})

	net := New(Config{Routing: vc.DoubleY(mesh), Faults: []topology.Channel{broken}})
	p := net.Enqueue(src, dst, 10)
	drain(t, net, 20000)
	if p.Arrived < 0 {
		t.Fatal("double-y did not deliver around the fault")
	}
	if p.Hops != mesh.Distance(src, dst) {
		t.Errorf("took %d hops, want %d (an alternative shortest path exists)", p.Hops, mesh.Distance(src, dst))
	}
}

// TestVCUnreachableDestinationDropped mirrors the wormhole engine's drop
// accounting on the VC engine: a destination inside a failed node is
// dropped at injection, and a destination whose only permitted paths are
// broken is dropped after one abort.
func TestVCUnreachableDestinationDropped(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)

	t.Run("failed-node", func(t *testing.T) {
		net := New(Config{
			Routing:   vc.DoubleY(mesh),
			FaultPlan: fault.Plan{Nodes: []topology.NodeID{5}},
			Recovery:  fault.Recovery{Enabled: true},
		})
		p := net.Enqueue(0, 5, 4)
		for i := 0; i < 100; i++ {
			if err := net.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if net.PacketsDropped() != 1 {
			t.Fatalf("dropped %d, want 1", net.PacketsDropped())
		}
		if p.Arrived >= 0 || p.Injected >= 0 {
			t.Errorf("packet toward failed node was injected (injected=%d arrived=%d)", p.Injected, p.Arrived)
		}
	})

	t.Run("minimal-paths-cut", func(t *testing.T) {
		// Break the east and north channels into (3,2). Its south incoming
		// channel stays live, so the cheap injection check passes — but
		// double-y only routes minimally, and from (0,0) every minimal
		// path enters (3,2) through a broken channel. The worm must stall,
		// abort once, fail the routing-aware reachability check and drop.
		broken := []topology.Channel{
			{From: mesh.ID(topology.Coord{2, 2}), To: mesh.ID(topology.Coord{3, 2}), Dir: topology.East},
			{From: mesh.ID(topology.Coord{3, 1}), To: mesh.ID(topology.Coord{3, 2}), Dir: topology.North},
		}
		net := New(Config{
			Routing:   vc.DoubleY(mesh),
			FaultPlan: fault.Plan{Static: broken},
			Recovery:  fault.Recovery{Enabled: true, StallCycles: 50},
		})
		p := net.Enqueue(mesh.ID(topology.Coord{0, 0}), mesh.ID(topology.Coord{3, 2}), 4)
		for i := 0; i < 2000; i++ {
			if err := net.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if net.PacketsDropped() != 1 {
			t.Fatalf("dropped %d, want 1 (every minimal path broken)", net.PacketsDropped())
		}
		if net.PacketsAborted() != 1 {
			t.Errorf("aborted %d, want exactly 1 (reachability check fires on first abort)", net.PacketsAborted())
		}
		if net.PacketsRetried() != 0 {
			t.Errorf("retried %d, want 0 for an unreachable destination", net.PacketsRetried())
		}
		if p.Arrived >= 0 {
			t.Error("packet delivered across broken minimal paths")
		}
		if net.InFlight() != 0 {
			t.Errorf("%d still in flight after drop", net.InFlight())
		}
	})
}

// TestVCFaultOnMissingChannelPanics mirrors the wormhole engine's
// constructor contract: a fault plan naming a channel the topology does
// not have is a programming error.
func TestVCFaultOnMissingChannelPanics(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{
		Routing: vc.DoubleY(mesh),
		Faults:  []topology.Channel{{From: 0, Dir: topology.West}},
	})
}
