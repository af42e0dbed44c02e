package engine_test

// The cross-shard differential harness: the same workload is driven through
// a serial engine and through sharded engines at several shard counts,
// including counts that do not divide the node count. Sharding is an
// execution strategy, not a model change, so every observable must be
// bit-identical: per-packet injection and delivery cycles, hop counts,
// abort counts, counter totals, and the outcome of every step. The serial
// run is recorded as a trace and each sharded run is compared against it
// cycle by cycle, for every registered algorithm and for the faulted,
// recovery and fault-masking configurations.

import (
	"testing"

	"turnmodel/internal/fault"
	"turnmodel/internal/network"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/vc"
	"turnmodel/internal/vcnet"
)

// shardCounts are compared against serial. 7 does not divide 36, 25 or 16
// nodes, so the last domain is a different size from the others; 4 divides
// all of them evenly.
var shardCounts = []int{2, 4, 7}

// shardEngine is the slice of the simulator surface the harness drives and
// compares; both network.Network and vcnet.Network implement it.
type shardEngine interface {
	Enqueue(src, dst topology.NodeID, length int) *network.Packet
	Step() error
	TakeDelivered() []*network.Packet
	InFlight() int
	PacketsDelivered() int64
	FlitsConsumed() int64
	PacketsAborted() int64
	PacketsRetried() int64
	PacketsDropped() int64
	FaultEvents() int64
	MaskedFaults() int64
	MisrouteHops() int64
	MaxQueueLen() int
	Close()
}

// shardCase extends a diffCase with an optional fault-masking policy (the
// per-domain FaultAware wrappers are one of the sharper sharding hazards,
// so masking gets dedicated cases).
type shardCase struct {
	diffCase
	pol fault.RoutingPolicy
}

func shardCases() []shardCase {
	var out []shardCase
	for _, c := range diffCases {
		out = append(out, shardCase{diffCase: c})
	}
	// Fault masking, with and without misrouting: masked-decision and
	// misroute-hop counters must also agree with serial.
	out = append(out,
		shardCase{
			diffCase: diffCase{topo: "mesh", alg: "west-first", rate: 0.02, cycles: 4000, rec: true,
				faults: []topology.Channel{mustChan("mesh", 7, topology.East), mustChan("mesh", 14, topology.North)}},
			pol: fault.RoutingPolicy{Visibility: fault.VisibilityLocal},
		},
		shardCase{
			diffCase: diffCase{topo: "mesh", alg: "negative-first", rate: 0.02, cycles: 4000, rec: true,
				faults: []topology.Channel{mustChan("mesh", 7, topology.East), mustChan("mesh", 21, topology.South)}},
			pol: fault.RoutingPolicy{Visibility: fault.VisibilityKHop, MisrouteLimit: 4},
		},
	)
	return out
}

func (c shardCase) shardName() string {
	n := c.name()
	if c.pol.Enabled() {
		n += "/masked"
	}
	return n
}

// delivery is one delivered packet as observed from outside the engine.
type delivery struct {
	cycle             int64
	id                int64
	injected, arrived int64
	hops, aborts      int
}

// shardTotals are the end-of-run counters compared across shard counts.
type shardTotals struct {
	Delivered, Flits, Aborted, Retried, Dropped int64
	FaultEvents, Masked, Misroutes              int64
	MaxQueue, InFlight                          int
}

func totalsOf(e shardEngine) shardTotals {
	return shardTotals{
		Delivered: e.PacketsDelivered(), Flits: e.FlitsConsumed(),
		Aborted: e.PacketsAborted(), Retried: e.PacketsRetried(),
		Dropped: e.PacketsDropped(), FaultEvents: e.FaultEvents(),
		Masked: e.MaskedFaults(), Misroutes: e.MisrouteHops(),
		MaxQueue: e.MaxQueueLen(), InFlight: e.InFlight(),
	}
}

// trace is the full observable history of one run.
type trace struct {
	deliveries []delivery
	stepErr    string // non-empty if a step deadlocked, ending the run
	errCycle   int64
	totals     shardTotals
}

// runTrace drives one engine over the case's schedule and records
// everything observable.
func runTrace(t *testing.T, c shardCase, e shardEngine, sched []injection) trace {
	t.Helper()
	return runTraceClosing(t, c, e, sched, -1)
}

// runTraceClosing is runTrace with the engine Closed — returned from
// sharded to serial stepping — before the step of cycle closeAt (never, if
// negative).
func runTraceClosing(t *testing.T, c shardCase, e shardEngine, sched []injection, closeAt int64) trace {
	t.Helper()
	defer e.Close()
	var tr trace
	next := 0
	drain := c.cycles + 20000
	for cycle := int64(0); cycle < drain; cycle++ {
		if cycle == closeAt {
			e.Close()
		}
		for next < len(sched) && sched[next].cycle == cycle {
			in := sched[next]
			e.Enqueue(in.src, in.dst, in.length)
			next++
		}
		if err := e.Step(); err != nil {
			tr.stepErr = err.Error()
			tr.errCycle = cycle
			break
		}
		for _, p := range e.TakeDelivered() {
			tr.deliveries = append(tr.deliveries, delivery{
				cycle: cycle, id: p.ID, injected: p.Injected, arrived: p.Arrived,
				hops: p.Hops, aborts: p.Aborts,
			})
		}
		if next == len(sched) && e.InFlight() == 0 {
			break
		}
	}
	tr.totals = totalsOf(e)
	return tr
}

func compareTraces(t *testing.T, shards int, serial, sharded trace) {
	t.Helper()
	if serial.stepErr != sharded.stepErr || serial.errCycle != sharded.errCycle {
		t.Fatalf("shards=%d: step outcome diverges:\n  serial:  cycle %d %q\n  sharded: cycle %d %q",
			shards, serial.errCycle, serial.stepErr, sharded.errCycle, sharded.stepErr)
	}
	if len(serial.deliveries) != len(sharded.deliveries) {
		t.Fatalf("shards=%d: delivered %d packets serially, %d sharded",
			shards, len(serial.deliveries), len(sharded.deliveries))
	}
	for i := range serial.deliveries {
		if serial.deliveries[i] != sharded.deliveries[i] {
			t.Fatalf("shards=%d: delivery %d diverges:\n  serial:  %+v\n  sharded: %+v",
				shards, i, serial.deliveries[i], sharded.deliveries[i])
		}
	}
	if serial.totals != sharded.totals {
		t.Errorf("shards=%d: counter totals diverge:\n  serial:  %+v\n  sharded: %+v",
			shards, serial.totals, sharded.totals)
	}
}

// TestCrossShardNetwork checks that the physical-channel simulator produces
// bit-identical results at every shard count.
func TestCrossShardNetwork(t *testing.T) {
	for _, c := range shardCases() {
		c := c
		t.Run(c.shardName(), func(t *testing.T) {
			t.Parallel()
			topo := c.topology(t)
			sched := schedule(c.diffCase, topo, 42)
			build := func(shards int) shardEngine {
				alg, err := routing.New(c.alg, c.topology(t))
				if err != nil {
					t.Fatal(err)
				}
				rec := fault.Recovery{}
				if c.rec {
					rec = fault.Recovery{Enabled: true, StallCycles: 200, MaxRetries: 4}
				}
				return network.New(network.Config{
					Routing:      alg,
					Faults:       c.faults,
					Recovery:     rec,
					FaultRouting: c.pol,
					Shards:       shards,
				})
			}
			serial := runTrace(t, c, build(1), sched)
			if serial.totals.Delivered == 0 {
				t.Fatalf("serial run delivered no packets (workload too weak to mean anything)")
			}
			for _, shards := range shardCounts {
				compareTraces(t, shards, serial, runTrace(t, c, build(shards), sched))
			}
		})
	}
}

// TestCrossShardVCNet checks the virtual-channel simulator the same way
// (there only injection and routing/allocation are sharded; movement is
// serial).
func TestCrossShardVCNet(t *testing.T) {
	for _, c := range shardCases() {
		c := c
		t.Run(c.shardName(), func(t *testing.T) {
			t.Parallel()
			topo := c.topology(t)
			sched := schedule(c.diffCase, topo, 42)
			build := func(shards int) shardEngine {
				alg, err := routing.New(c.alg, c.topology(t))
				if err != nil {
					t.Fatal(err)
				}
				rec := fault.Recovery{}
				if c.rec {
					rec = fault.Recovery{Enabled: true, StallCycles: 200, MaxRetries: 4}
				}
				return vcnet.New(vcnet.Config{
					Routing:      vc.Lift(alg),
					Faults:       c.faults,
					Recovery:     rec,
					FaultRouting: c.pol,
					Shards:       shards,
				})
			}
			serial := runTrace(t, c, build(1), sched)
			if serial.totals.Delivered == 0 {
				t.Fatalf("serial run delivered no packets (workload too weak to mean anything)")
			}
			for _, shards := range shardCounts {
				compareTraces(t, shards, serial, runTrace(t, c, build(shards), sched))
			}
		})
	}
}
