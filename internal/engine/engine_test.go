package engine_test

// Unit tests for the shared engine core itself: the Grid tables against
// the Topology interface they cache, the Emitter's batching contract, and
// the Core's injection worklist, retry policy, and watchdog. The
// end-to-end equivalence of the two engines built on top is diff_test.go's
// job.

import (
	"reflect"
	"testing"

	"turnmodel/internal/engine"
	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/topology"
)

func TestGridMatchesTopology(t *testing.T) {
	for _, topo := range []topology.Topology{
		topology.NewMesh(4, 5),
		topology.NewMesh(3, 3, 2),
		topology.NewTorus(3, 4),
		topology.NewHypercube(3),
	} {
		g := engine.NewGrid(topo)
		if g.Dims != topo.Dims() || g.Dims2 != 2*topo.Dims() || g.Nodes != topo.Nodes() {
			t.Fatalf("%s: grid shape %d/%d/%d", topo.Name(), g.Dims, g.Dims2, g.Nodes)
		}
		seen := make(map[int]bool)
		for node := 0; node < g.Nodes; node++ {
			for d := 0; d < g.Dims2; d++ {
				id, dir := topology.NodeID(node), topology.Direction(d)
				wantNb, wantOK := topo.Neighbor(id, dir)
				gotNb, gotOK := g.Neighbor(id, dir)
				if gotOK != wantOK || (wantOK && gotNb != wantNb) {
					t.Errorf("%s: Neighbor(%d,%v) = %d,%v, want %d,%v",
						topo.Name(), node, dir, gotNb, gotOK, wantNb, wantOK)
				}
				if wantOK && g.Wrap(id, dir) != topo.Wraparound(id, dir) {
					t.Errorf("%s: Wrap(%d,%v) = %v", topo.Name(), node, dir, g.Wrap(id, dir))
				}
				key := g.Key(id, dir)
				if key < 0 || key >= g.Nodes*g.Dims2 || seen[key] {
					t.Fatalf("%s: Key(%d,%v) = %d not dense/unique", topo.Name(), node, dir, key)
				}
				seen[key] = true
			}
		}
	}
}

// recProbe records probe calls as strings, in arrival order.
type recProbe struct{ calls []string }

func (r *recProbe) rec(s string) { r.calls = append(r.calls, s) }
func (r *recProbe) Inject(c int64, src, dst topology.NodeID, l int) {
	r.rec("inject")
}
func (r *recProbe) Blocked(c int64, n topology.NodeID) { r.rec("blocked") }
func (r *recProbe) FlitMove(c int64, from topology.NodeID, d topology.Direction, f int) {
	r.rec("flitmove")
}
func (r *recProbe) Deliver(c int64, src, dst topology.NodeID, l, h int, qd, nd int64) {
	r.rec("deliver")
}
func (r *recProbe) Fault(c int64, from topology.NodeID, d topology.Direction, failed bool) {
	r.rec("fault")
}
func (r *recProbe) Abort(c int64, src, dst topology.NodeID, l, a int)       { r.rec("abort") }
func (r *recProbe) Retry(c int64, src, dst topology.NodeID, a int, d int64) { r.rec("retry") }
func (r *recProbe) Drop(c int64, src, dst topology.NodeID, l int, reason metrics.DropReason) {
	r.rec("drop")
}
func (r *recProbe) Tick(c int64) { r.rec("tick") }

func TestEmitterBatchesInOrder(t *testing.T) {
	p := &recProbe{}
	em := engine.NewEmitter(p)
	if !em.Enabled() || em.Probe() != metrics.Probe(p) {
		t.Fatal("emitter did not attach the probe")
	}
	em.Inject(0, 1, 2, 3)
	em.Blocked(0, 4)
	em.FlitMove(0, 5, topology.East, 2)
	em.Deliver(0, 1, 2, 3, 4, 5, 6)
	em.Fault(0, 7, topology.North, true)
	em.Abort(0, 1, 2, 3, 1)
	em.Retry(0, 1, 2, 1, 8)
	em.Drop(0, 1, 2, 3, metrics.DropUnreachable)
	if len(p.calls) != 0 {
		t.Fatalf("events reached the probe before Tick: %v", p.calls)
	}
	em.Tick(0)
	want := []string{"inject", "blocked", "flitmove", "deliver", "fault", "abort", "retry", "drop", "tick"}
	if !reflect.DeepEqual(p.calls, want) {
		t.Errorf("flush order %v, want %v", p.calls, want)
	}
	// The buffer is reused, not replayed.
	p.calls = nil
	em.Tick(1)
	if !reflect.DeepEqual(p.calls, []string{"tick"}) {
		t.Errorf("second Tick replayed stale events: %v", p.calls)
	}
}

func TestEmitterNilProbeNoOps(t *testing.T) {
	em := engine.NewEmitter(nil)
	if em.Enabled() || em.Probe() != nil {
		t.Fatal("nil probe reported enabled")
	}
	n := testing.AllocsPerRun(100, func() {
		em.Inject(0, 1, 2, 3)
		em.Deliver(0, 1, 2, 3, 4, 5, 6)
		em.Tick(0)
	})
	if n != 0 {
		t.Errorf("disabled emitter allocates %.1f allocs/op", n)
	}
}

// testCore builds a Core over a 4x4 mesh whose hooks record injections and
// never place a worm in a real network: InjFree consults the free map,
// InjPlace appends to placed.
type testCore struct {
	engine.Core
	free      map[topology.NodeID]bool
	placed    []topology.NodeID
	reachable bool
}

func newTestCore(t *testing.T, cfg engine.Config) *testCore {
	t.Helper()
	if cfg.Topo == nil {
		cfg.Topo = topology.NewMesh(4, 4)
	}
	tc := &testCore{free: map[topology.NodeID]bool{}, reachable: true}
	tc.Core = engine.NewCore(cfg)
	tc.Core.Bind()
	tc.Core.InjFree = func(n topology.NodeID) bool { return tc.free[n] }
	tc.Core.InjPlace = func(n topology.NodeID, p *engine.Packet) { tc.placed = append(tc.placed, n) }
	tc.Core.Reachable = func(src, dst topology.NodeID) bool { return tc.reachable }
	tc.Core.OnEpochChange = func() {}
	return tc
}

func TestCoreInjectsInAscendingNodeOrder(t *testing.T) {
	tc := newTestCore(t, engine.Config{})
	for _, src := range []topology.NodeID{9, 2, 13, 2, 5} {
		tc.free[src] = true
		tc.Enqueue(src, 0, 4)
	}
	if got := tc.Backlog(); got != 5 {
		t.Fatalf("backlog %d, want 5", got)
	}
	if got := tc.QueueLen(2); got != 2 {
		t.Fatalf("queue at node 2 has %d, want 2", got)
	}
	if !tc.InjectPhase() {
		t.Fatal("injection made no progress")
	}
	// One packet per free buffer, visited in ascending node order exactly
	// like the full node scan the worklist replaces.
	want := []topology.NodeID{2, 5, 9, 13}
	if !reflect.DeepEqual(tc.placed, want) {
		t.Errorf("injection order %v, want %v", tc.placed, want)
	}
	if got := tc.Backlog(); got != 1 {
		t.Errorf("backlog after injection %d, want 1 (second packet at node 2)", got)
	}
	// Node 2's buffer is now notionally occupied, so the node sleeps off
	// the worklist with its second packet queued: the phase has nobody to
	// visit until the engine reports the buffer vacated.
	for n := range tc.free {
		tc.free[n] = false
	}
	tc.placed = nil
	if tc.OnWorklist(2) {
		t.Error("node 2 stayed on the worklist behind its occupied injection buffer")
	}
	if tc.InjectPhase() {
		t.Error("injection progressed with every buffer occupied")
	}
	tc.free[2] = true
	tc.WakeSource(2)
	tc.WakeSource(5) // nothing queued there: not worth a visit
	if !tc.OnWorklist(2) || tc.OnWorklist(5) {
		t.Errorf("after the wakes: node 2 on worklist %v (want true), node 5 %v (want false)", tc.OnWorklist(2), tc.OnWorklist(5))
	}
	if !tc.InjectPhase() || !reflect.DeepEqual(tc.placed, []topology.NodeID{2}) {
		t.Errorf("queued packet did not inject once the buffer freed: %v", tc.placed)
	}
	if tc.Backlog() != 0 {
		t.Errorf("backlog %d after draining", tc.Backlog())
	}
}

// TestCoreEnqueueSkipsBusySource: a message generated at a source whose
// injection buffer is occupied does not put the source on the injection
// worklist — InjectPhase would only find the buffer occupied and drop it
// again — and the WakeSource that reports the buffer vacated does, so the
// message injects in the phase after the wake (lost-wake clause (d) of the
// engines' oracles: a queued message and a free buffer mean a listed node).
func TestCoreEnqueueSkipsBusySource(t *testing.T) {
	tc := newTestCore(t, engine.Config{})
	tc.free[7] = false
	tc.Enqueue(7, 0, 4)
	tc.Enqueue(7, 1, 4)
	if tc.OnWorklist(7) {
		t.Fatal("a source behind its occupied injection buffer went on the worklist")
	}
	if tc.InjectPhase() || len(tc.placed) != 0 {
		t.Fatalf("injection progressed behind an occupied buffer: %v", tc.placed)
	}
	tc.free[7] = true
	tc.WakeSource(7)
	if !tc.OnWorklist(7) {
		t.Fatal("vacating the buffer did not put the source back on the worklist")
	}
	if !tc.InjectPhase() || !reflect.DeepEqual(tc.placed, []topology.NodeID{7}) {
		t.Fatalf("the queued message did not inject once the buffer freed: %v", tc.placed)
	}
	// The buffer is occupied again by the worm just placed: the source left
	// the worklist with one message queued, and a further arrival leaves it
	// off.
	tc.free[7] = false
	tc.Enqueue(7, 2, 4)
	if tc.OnWorklist(7) || tc.QueueLen(7) != 2 {
		t.Fatalf("after re-occupying the buffer: on worklist %v, queue %d (want false, 2)", tc.OnWorklist(7), tc.QueueLen(7))
	}
}

func TestCorePacketNumbering(t *testing.T) {
	tc := newTestCore(t, engine.Config{})
	a := tc.Enqueue(1, 2, 3)
	b := tc.Enqueue(3, 4, 5)
	if a.ID != 0 || b.ID != 1 {
		t.Errorf("packet IDs %d, %d — want enqueue order 0, 1", a.ID, b.ID)
	}
	if a.Created != 0 || a.Injected != -1 || a.Arrived != -1 {
		t.Errorf("fresh packet timestamps: %+v", *a)
	}
}

func TestCoreRetryBackoffThenDrop(t *testing.T) {
	tc := newTestCore(t, engine.Config{
		Recovery: fault.Recovery{Enabled: true, StallCycles: 100, MaxRetries: 1},
	})
	tc.free[0] = true
	p := tc.Enqueue(0, 15, 4)
	tc.InjectPhase()
	if len(tc.placed) != 1 || p.Injected != 0 {
		t.Fatalf("packet did not inject: placed=%v injected=%d", tc.placed, p.Injected)
	}

	// First abort: within the retry budget, so the packet waits out its
	// backoff at the source and reinjects.
	tc.placed = nil
	tc.FinishAbort(p)
	if tc.PacketsAborted != 1 || tc.PacketsRetried != 1 || tc.PacketsDropped != 0 {
		t.Fatalf("after first abort: aborted=%d retried=%d dropped=%d",
			tc.PacketsAborted, tc.PacketsRetried, tc.PacketsDropped)
	}
	if p.Injected != -1 || p.Aborts != 1 {
		t.Fatalf("aborted packet not reset: %+v", *p)
	}
	delay := tc.Recovery.Backoff(1)
	for tc.Cycle <= delay {
		if tc.InjectPhase() && tc.Cycle < delay {
			t.Fatalf("retry reinjected at cycle %d, before its %d-cycle backoff", tc.Cycle, delay)
		}
		tc.EndStep(false, 1)
	}
	if !reflect.DeepEqual(tc.placed, []topology.NodeID{0}) {
		t.Fatalf("retry never reinjected: %v", tc.placed)
	}

	// Second abort exceeds MaxRetries=1: dropped, not retried.
	tc.FinishAbort(p)
	if tc.PacketsDropped != 1 || tc.PacketsRetried != 1 {
		t.Errorf("after second abort: retried=%d dropped=%d, want 1, 1", tc.PacketsRetried, tc.PacketsDropped)
	}
	if tc.Backlog() != 0 {
		t.Errorf("dropped packet still in backlog (%d)", tc.Backlog())
	}
}

func TestCoreAbortUnreachableDrops(t *testing.T) {
	tc := newTestCore(t, engine.Config{
		Recovery: fault.Recovery{Enabled: true, StallCycles: 100, MaxRetries: 5},
	})
	tc.free[0] = true
	p := tc.Enqueue(0, 15, 4)
	tc.InjectPhase()
	tc.reachable = false
	tc.FinishAbort(p)
	if tc.PacketsDropped != 1 || tc.PacketsRetried != 0 {
		t.Errorf("unreachable abort: retried=%d dropped=%d, want 0, 1", tc.PacketsRetried, tc.PacketsDropped)
	}
}

func TestCoreWatchdog(t *testing.T) {
	tc := newTestCore(t, engine.Config{WatchdogCycles: 50})
	tc.Enqueue(0, 15, 4) // in-flight population, never injects (no free buffer)
	fired := false
	for i := 0; i < 120 && !fired; i++ {
		fired = tc.EndStep(false, 0)
	}
	if !fired {
		t.Error("watchdog never fired despite 120 progress-free cycles with backlog")
	}
	if tc.Cycle < 50 {
		t.Errorf("watchdog fired early, at cycle %d", tc.Cycle)
	}
	err := tc.Deadlock(0, nil)
	if err.Cycle != tc.Cycle || err.InFlight != 1 {
		t.Errorf("deadlock error %+v", *err)
	}

	// Progress resets the countdown.
	tc2 := newTestCore(t, engine.Config{WatchdogCycles: 50})
	tc2.Enqueue(0, 15, 4)
	for i := 0; i < 200; i++ {
		if tc2.EndStep(i%30 == 0, 0) {
			t.Fatalf("watchdog fired at cycle %d despite progress every 30 cycles", tc2.Cycle)
		}
	}

	// An idle network never deadlocks, and neither does recovery mode.
	tc3 := newTestCore(t, engine.Config{WatchdogCycles: 50})
	for i := 0; i < 200; i++ {
		if tc3.EndStep(false, 0) {
			t.Fatal("watchdog fired on an empty network")
		}
	}
	tc4 := newTestCore(t, engine.Config{
		WatchdogCycles: 50,
		Recovery:       fault.Recovery{Enabled: true, StallCycles: 100},
	})
	tc4.Enqueue(0, 15, 4)
	for i := 0; i < 200; i++ {
		if tc4.EndStep(false, 1) {
			t.Fatal("watchdog fired in recovery mode")
		}
	}
}

func TestCoreCutOff(t *testing.T) {
	// Fault every channel out of node 0 (corner of a 4x4 mesh: East and
	// North). With static faults the fault state is live and CutOff must
	// see node 0 as cut off as a source, and as a destination (its
	// incoming channels are the opposites of the broken pair's reverse
	// links, which remain live — so only the source side cuts).
	topo := topology.NewMesh(4, 4)
	var faults []topology.Channel
	for d := 0; d < 4; d++ {
		dir := topology.Direction(d)
		if to, ok := topo.Neighbor(0, dir); ok {
			faults = append(faults, topology.Channel{From: 0, To: to, Dir: dir})
		}
	}
	tc := newTestCore(t, engine.Config{Topo: topo, Faults: faults})
	if !tc.CutOff(0, 15) {
		t.Error("source with every outgoing channel broken not reported cut off")
	}
	if tc.CutOff(15, 5) {
		t.Error("healthy pair reported cut off")
	}
	if tc.ActiveFaults() != len(faults) {
		t.Errorf("ActiveFaults %d, want %d", tc.ActiveFaults(), len(faults))
	}
	if tc.FaultEvents() != int64(len(faults)) {
		t.Errorf("FaultEvents %d, want %d", tc.FaultEvents(), len(faults))
	}
}

// uncomparableTopo is a topology value of a type == cannot compare.
type uncomparableTopo struct {
	*topology.Mesh
	tags []int
}

// TestCoreResetUncomparableTopology: Reset decides whether the topology
// changed by comparing it with the one it has, and must not panic on a
// type that cannot be compared — it rebuilds the Grid instead — while the
// very same pointer topology keeps its Grid.
func TestCoreResetUncomparableTopology(t *testing.T) {
	odd := uncomparableTopo{Mesh: topology.NewMesh2D(4, 4)}
	c := engine.NewCore(engine.Config{Topo: odd})
	g := c.Grid
	c.Reset(engine.Config{Topo: odd})
	if c.Grid == g {
		t.Error("Reset kept the Grid of a topology it cannot compare")
	}
	mesh := topology.NewMesh2D(4, 4)
	c.Reset(engine.Config{Topo: mesh})
	g = c.Grid
	c.Reset(engine.Config{Topo: mesh})
	if c.Grid != g {
		t.Error("Reset rebuilt the Grid of the topology it already had")
	}
}
