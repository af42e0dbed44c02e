package engine_test

// Engine-level cases for the wait table (internal/engine/wait.go): the
// state changes that could strand a waiting header outside the table or
// leak an entry for a worm that stopped waiting. The table itself is
// covered by the property test in wait_test.go, and the white-box
// invariant checks of internal/network and internal/vcnet compare it
// against the old global request sort after every cycle of their soaks;
// these tests drive the same hazards from outside, through both engines'
// public surfaces, and judge them by what a user can observe.

import (
	"fmt"
	"testing"

	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/network"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/vc"
	"turnmodel/internal/vcnet"
)

// waitProbe counts the probe events the wait-table cases reason about.
type waitProbe struct {
	metrics.NopProbe
	blockedAt     map[topology.NodeID]int
	abortedFrom   map[topology.NodeID]int
	blockedInTick bool // a Blocked event since the last Tick
	blockedBefore bool // the previous cycle had a Blocked event
	faultsOnWait  int  // Fault events in cycles that began with a header waiting
}

func newWaitProbe() *waitProbe {
	return &waitProbe{blockedAt: map[topology.NodeID]int{}, abortedFrom: map[topology.NodeID]int{}}
}

func (p *waitProbe) Blocked(_ int64, node topology.NodeID) {
	p.blockedAt[node]++
	p.blockedInTick = true
}

func (p *waitProbe) Abort(_ int64, src, _ topology.NodeID, _, _ int) { p.abortedFrom[src]++ }

func (p *waitProbe) Fault(int64, topology.NodeID, topology.Direction, bool) {
	if p.blockedBefore {
		p.faultsOnWait++
	}
}

func (p *waitProbe) Tick(int64) { p.blockedBefore, p.blockedInTick = p.blockedInTick, false }

// bothEngines runs a case against internal/network and internal/vcnet (the
// algorithm lifted to one virtual channel).
func bothEngines(t *testing.T, run func(t *testing.T, build func(cfg network.Config) simEngine)) {
	t.Run("network", func(t *testing.T) {
		run(t, func(cfg network.Config) simEngine { return network.New(cfg) })
	})
	t.Run("vcnet", func(t *testing.T) {
		run(t, func(cfg network.Config) simEngine {
			return vcnet.New(vcnet.Config{
				Routing: vc.Lift(cfg.Routing), Faults: cfg.Faults, FaultPlan: cfg.FaultPlan,
				Recovery: cfg.Recovery, FaultRouting: cfg.FaultRouting, Probe: cfg.Probe,
			})
		})
	})
}

// TestWaitTableAbortLeavesNoTrace aborts worms in both states an abort can
// find them in — still waiting for an output (listed in the table) and
// already granted one but stalled behind an occupied buffer (not listed) —
// and then checks that the network behaves exactly like a fresh one: a
// stranded or leaked table entry would hold a channel, swallow a grant or
// panic.
//
// Every eastbound channel out of column 3 of a 6x6 xy mesh is broken. In
// each row a one-flit leader from column 2 reaches the break and waits
// there, blocked every cycle; its tail has crossed channel 2->3, so the
// follower from column 1 is granted that channel at once and then stalls
// with the leader's flit in its target buffer. Recovery aborts both in the
// same phase, and since xy cannot route around the break, drops them.
func TestWaitTableAbortLeavesNoTrace(t *testing.T) {
	bothEngines(t, func(t *testing.T, build func(cfg network.Config) simEngine) {
		mesh := topology.NewMesh2D(6, 6)
		id := func(x, y int) topology.NodeID { return mesh.ID(topology.Coord{x, y}) }
		config := func(probe metrics.Probe) network.Config {
			cfg := network.Config{
				Routing:  routing.XY(mesh),
				Recovery: fault.Recovery{Enabled: true, StallCycles: 50, MaxRetries: 2},
				Probe:    probe,
			}
			for y := 0; y < 6; y++ {
				cfg.Faults = append(cfg.Faults, topology.Channel{From: id(3, y), Dir: topology.East})
			}
			return cfg
		}
		// secondWave sends traffic through the routers the victims sat in
		// and returns every delivery as (src, dst, injected, arrived, hops).
		type outcome struct {
			src, dst          topology.NodeID
			injected, arrived int64
			hops              int
		}
		secondWave := func(e simEngine) []outcome {
			for y := 0; y < 6; y++ {
				e.Enqueue(id(0, y), id(3, y), 5)
				e.Enqueue(id(2, y), id(2, (y+1)%6), 3)
				e.Enqueue(id(3, y), id(1, (y+2)%6), 4)
			}
			var out []outcome
			for i := 0; i < 2000 && e.InFlight() > 0; i++ {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
				for _, p := range e.TakeDelivered() {
					out = append(out, outcome{p.Src, p.Dst, p.Injected, p.Arrived, p.Hops})
				}
			}
			if e.InFlight() != 0 {
				t.Fatalf("second wave did not drain: %d in flight", e.InFlight())
			}
			return out
		}

		probe := newWaitProbe()
		storm := build(config(probe))
		for y := 0; y < 6; y++ {
			storm.Enqueue(id(2, y), id(5, y), 1) // leader: aborted while waiting
			storm.Enqueue(id(1, y), id(5, y), 4) // follower: aborted while granted
		}
		const quiet = 200
		for c := 0; c < quiet; c++ {
			if err := storm.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if storm.PacketsAborted() != 12 || storm.PacketsDropped() != 12 || storm.InFlight() != 0 {
			t.Fatalf("after the storm: aborted=%d dropped=%d in-flight=%d, want 12/12/0",
				storm.PacketsAborted(), storm.PacketsDropped(), storm.InFlight())
		}
		for y := 0; y < 6; y++ {
			if probe.blockedAt[id(3, y)] == 0 {
				t.Errorf("row %d: the leader was never blocked at the break, so no waiting worm was aborted", y)
			}
			if n := probe.blockedAt[id(2, y)]; n != 0 {
				t.Errorf("row %d: the follower was blocked %d times at column 2; it should have been granted at once and aborted as a granted worm", y, n)
			}
			if probe.abortedFrom[id(2, y)] != 1 || probe.abortedFrom[id(1, y)] != 1 {
				t.Errorf("row %d: aborts from leader/follower sources = %d/%d, want 1/1",
					y, probe.abortedFrom[id(2, y)], probe.abortedFrom[id(1, y)])
			}
		}

		fresh := build(config(nil))
		for c := 0; c < quiet; c++ {
			if err := fresh.Step(); err != nil {
				t.Fatal(err)
			}
		}
		got, want := secondWave(storm), secondWave(fresh)
		if len(got) != len(want) || len(want) != 18 {
			t.Fatalf("second wave delivered %d packets after the storm, %d on a fresh network, want 18", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("second-wave delivery %d: %+v after the storm, %+v on a fresh network", i, got[i], want[i])
			}
		}
	})
}

// TestWaitTableEpochChangeWhileWaiting changes the fault set again and again
// while headers sit in the table: every epoch change invalidates the cached
// candidates of the waiting headers (OnEpochChange) without touching their
// entries, so they must be re-offered under the new fault set from the same
// place in the same order — and everything must still drain. The probe
// proves the case is not vacuous: fault transitions land in cycles that
// began with a blocked header waiting.
func TestWaitTableEpochChangeWhileWaiting(t *testing.T) {
	bothEngines(t, func(t *testing.T, build func(cfg network.Config) simEngine) {
		c := diffCase{topo: "mesh", alg: "west-first", rate: 0.03, cycles: 3000}
		topo := c.topology(t)
		alg, err := routing.New(c.alg, topo)
		if err != nil {
			t.Fatal(err)
		}
		probe := newWaitProbe()
		e := build(network.Config{
			Routing:      alg,
			FaultPlan:    fault.Plan{Rate: 1e-3, Repair: 60, Seed: 9},
			FaultRouting: fault.RoutingPolicy{Visibility: fault.VisibilityKHop, MisrouteLimit: 2},
			Probe:        probe,
		})
		sched := schedule(c, topo, 7)
		tr := runTrace(t, c, e, sched)
		if tr.stepErr != "" {
			t.Fatalf("step failed at cycle %d: %s", tr.errCycle, tr.stepErr)
		}
		if int(tr.totals.Delivered) != len(sched) || tr.totals.InFlight != 0 {
			t.Fatalf("delivered %d of %d packets, %d still in flight", tr.totals.Delivered, len(sched), tr.totals.InFlight)
		}
		if probe.faultsOnWait == 0 || tr.totals.Masked == 0 {
			t.Fatalf("vacuous: %d fault transitions hit a cycle with a waiting header, %d masked decisions",
				probe.faultsOnWait, tr.totals.Masked)
		}
	})
}

// TestCloseMidRunMatchesSerial calls Close, which both engines keep as a
// no-op for callers written against an interface with Close, on a loaded
// run — before its first step, in the middle and after the drain — and the
// run must match, from the first packet to the last, one that was never
// closed.
func TestCloseMidRunMatchesSerial(t *testing.T) {
	cases := []skipCase{
		{diffCase: diffCase{topo: "mesh", alg: "west-first", rate: 0.03, cycles: 3000}},
		{diffCase: diffCase{topo: "cube", alg: "p-cube", rate: 0.03, cycles: 3000}},
		{
			diffCase: diffCase{topo: "mesh", alg: "negative-first", rate: 0.02, cycles: 4000, rec: true,
				faults: []topology.Channel{mustChan("mesh", 7, topology.East), mustChan("mesh", 21, topology.South)}},
			pol: fault.RoutingPolicy{Visibility: fault.VisibilityKHop, MisrouteLimit: 4},
		},
	}
	bothEngines(t, func(t *testing.T, build func(cfg network.Config) simEngine) {
		for _, c := range cases {
			c := c
			t.Run(c.skipName(), func(t *testing.T) {
				sched := schedule(c.diffCase, c.topology(t), 42)
				engine := func() simEngine {
					alg, err := routing.New(c.alg, c.topology(t))
					if err != nil {
						t.Fatal(err)
					}
					cfg := network.Config{Routing: alg, Faults: c.faults, FaultRouting: c.pol}
					if c.rec {
						cfg.Recovery = fault.Recovery{Enabled: true, StallCycles: 200, MaxRetries: 4}
					}
					return build(cfg)
				}
				serial := runTrace(t, c.diffCase, engine(), sched)
				if serial.totals.Delivered == 0 {
					t.Fatal("the run delivered no packets")
				}
				for _, closeAt := range []int64{0, 700, c.cycles + 5} {
					closed := runTraceClosing(t, c.diffCase, engine(), sched, closeAt)
					compareTraces(t, fmt.Sprintf("closed at cycle %d", closeAt), serial, closed)
				}
			})
		}
	})
}
