package network

import (
	"math/rand"
	"testing"

	"turnmodel/internal/fault"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// TestChaosSoakEventSkip is the event-clock variant of the chaos soak: a
// sparse seeded workload — idle gaps dominate, so the clock leaps — runs
// under random transient link faults with deadlock recovery on. The
// structural invariants and packet conservation
//
//	enqueued == delivered + dropped + in-flight
//
// hold at every observed step, the drain empties the network, every
// enqueued flit ends up delivered or dropped (no retry is ever lost to a
// leap), and the ledger probe's Tick-continuity check proves each leaped
// cycle was charged to the probe exactly once. The soak fails if nothing
// leaped or no fault fired, so it cannot pass vacuously.
func TestChaosSoakEventSkip(t *testing.T) {
	cases := []struct {
		name string
		alg  routing.Algorithm
	}{
		{"mesh-west-first", routing.WestFirst(topology.NewMesh2D(4, 4))},
		{"torus-negative-first", routing.NegativeFirstTorus(topology.NewKaryNCube(4, 2))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := tc.alg.Topology()
			// Precompute a sparse schedule: a burst of a few packets
			// roughly every few hundred cycles, so the network repeatedly
			// drains to empty and the clock gets room to leap between
			// bursts (and between retry timers within recovery episodes).
			type arrival struct {
				cycle    int64
				src, dst topology.NodeID
				length   int
			}
			rng := rand.New(rand.NewSource(21))
			var sched []arrival
			const soak = int64(30000)
			for cycle := int64(0); cycle < soak; {
				burst := 1 + rng.Intn(3)
				for i := 0; i < burst; i++ {
					src := topology.NodeID(rng.Intn(topo.Nodes()))
					dst := topology.NodeID(rng.Intn(topo.Nodes()))
					if src == dst {
						continue
					}
					sched = append(sched, arrival{cycle: cycle, src: src, dst: dst, length: 1 + rng.Intn(20)})
				}
				cycle += 50 + int64(rng.Intn(400))
			}

			probe := &chaosProbe{ledgerProbe: &ledgerProbe{t: t}}
			net := New(Config{
				Routing: tc.alg,
				Seed:    11,
				Probe:   probe,
				// Aggressive enough that faults, aborts and retries all
				// happen within the soak window, with repair so the
				// network can always drain.
				FaultPlan: fault.Plan{Rate: 5e-5, Repair: 300, Seed: 99},
				Recovery:  fault.Recovery{Enabled: true, StallCycles: 200, MaxRetries: 4},
			})

			enqueued := int64(0)
			enqueuedFlits := int64(0)
			conserve := func(when int64) {
				t.Helper()
				got := net.PacketsDelivered() + net.PacketsDropped() + int64(net.InFlight())
				if enqueued != got {
					t.Fatalf("cycle %d: enqueued=%d but delivered=%d dropped=%d in-flight=%d",
						when, enqueued, net.PacketsDelivered(), net.PacketsDropped(), net.InFlight())
				}
			}

			next := 0
			for net.Cycle() < soak {
				c := net.Cycle()
				for next < len(sched) && sched[next].cycle == c {
					in := sched[next]
					net.Enqueue(in.src, in.dst, in.length)
					enqueued++
					enqueuedFlits += int64(in.length)
					next++
				}
				if next < len(sched) {
					net.SetInjectionHorizon(sched[next].cycle)
				} else {
					net.SetInjectionHorizon(soak)
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
			if net.CyclesSkipped() == 0 {
				t.Fatal("no cycles were skipped; the soak never exercised the event clock")
			}

			// Drain with the horizon wide open: transient faults keep
			// firing but repair, retries are capped, so the network must
			// empty — and the clock may leap over the whole idle tail.
			drainEnd := net.Cycle() + 400000
			net.SetInjectionHorizon(drainEnd)
			for net.Cycle() < drainEnd && net.InFlight() > 0 {
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
			// Zero lost retries: every abort is followed by a retry or a
			// drop, and the engine's retry counter matches the probe's.
			if probe.aborted > 0 && probe.retried+probe.dropped == 0 {
				t.Error("aborts happened but no retries or drops followed")
			}
			if probe.retried != net.PacketsRetried() {
				t.Errorf("probe saw %d retries, engine counted %d", probe.retried, net.PacketsRetried())
			}
			t.Logf("%s: enqueued=%d delivered=%d dropped=%d aborted=%d retried=%d faults=%d repairs=%d skipped=%d",
				tc.name, enqueued, probe.delivered, probe.dropped, probe.aborted,
				probe.retried, probe.faults, probe.repairs, net.CyclesSkipped())
		})
	}
}
