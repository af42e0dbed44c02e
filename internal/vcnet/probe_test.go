package vcnet

import (
	"math/rand"
	"testing"

	"turnmodel/internal/metrics"
	"turnmodel/internal/topology"
	"turnmodel/internal/vc"
)

// ledgerProbe tallies probe events so tests can check them against the
// engine's own accounting.
type ledgerProbe struct {
	t              *testing.T
	injected       int
	delivered      int
	injectedFlits  int64
	deliveredFlits int64
	movedFlits     int64
	movedThisCycle int64
	wantMovedFlits int64 // sum of length*hops over delivered packets
	blocked        int64
	ticks          int64
	faults         int64
	aborted        int64
	abortedFlits   int64
	retried        int64
	dropped        int64
}

func (p *ledgerProbe) Inject(cycle int64, src, dst topology.NodeID, length int) {
	p.injected++
	p.injectedFlits += int64(length)
}

func (p *ledgerProbe) Blocked(cycle int64, node topology.NodeID) { p.blocked++ }

func (p *ledgerProbe) FlitMove(cycle int64, from topology.NodeID, d topology.Direction, flits int) {
	if flits != 1 {
		p.t.Errorf("vcnet emitted a %d-flit move; the per-flit engine must emit exactly 1", flits)
	}
	p.movedFlits += int64(flits)
	p.movedThisCycle += int64(flits)
}

func (p *ledgerProbe) Deliver(cycle int64, src, dst topology.NodeID, length, hops int, queueDelay, netDelay int64) {
	p.delivered++
	p.deliveredFlits += int64(length)
	p.wantMovedFlits += int64(length) * int64(hops)
	if queueDelay < 0 || netDelay <= 0 {
		p.t.Errorf("packet %d->%d: queueDelay=%d netDelay=%d", src, dst, queueDelay, netDelay)
	}
}

func (p *ledgerProbe) Fault(cycle int64, from topology.NodeID, d topology.Direction, failed bool) {
	if failed {
		p.faults++
	}
}

func (p *ledgerProbe) Abort(cycle int64, src, dst topology.NodeID, length, attempt int) {
	p.aborted++
	p.abortedFlits += int64(length)
}

func (p *ledgerProbe) Retry(cycle int64, src, dst topology.NodeID, attempt int, delay int64) {
	p.retried++
}

func (p *ledgerProbe) Drop(cycle int64, src, dst topology.NodeID, length int, reason metrics.DropReason) {
	p.dropped++
}

func (p *ledgerProbe) Tick(cycle int64) {
	p.ticks++
	p.movedThisCycle = 0
}

func queuedPackets(n *Network) int {
	total := 0
	for id := 0; id < n.Topology().Nodes(); id++ {
		total += n.QueueLen(topology.NodeID(id))
	}
	return total
}

// TestProbeConservation mirrors the wormhole engine's test on the
// per-flit VC engine: probe events must balance the engine's population
// counts every cycle, and — since vcnet reports each flit crossing
// individually — the per-cycle flit-move count can never exceed the
// physical channel count (one flit per physical channel per cycle).
func TestProbeConservation(t *testing.T) {
	mesh := topology.NewMesh2D(8, 8)
	alg, err := vc.New("double-y", mesh)
	if err != nil {
		t.Fatal(err)
	}
	probe := &ledgerProbe{t: t}
	net := New(Config{Routing: alg, Probe: probe})
	rng := rand.New(rand.NewSource(7))
	physChannels := int64(mesh.Nodes() * 2 * mesh.Dims())

	check := func(step int) {
		t.Helper()
		inNet := net.InFlight() - queuedPackets(net)
		if probe.injected != probe.delivered+inNet {
			t.Fatalf("step %d: injected=%d delivered=%d in-network=%d",
				step, probe.injected, probe.delivered, inNet)
		}
		if probe.movedThisCycle > physChannels {
			t.Fatalf("step %d: %d flit moves in one cycle on %d physical channels",
				step, probe.movedThisCycle, physChannels)
		}
	}
	for c := 0; c < 3000; c++ {
		if c%3 == 0 {
			src := topology.NodeID(rng.Intn(64))
			dst := topology.NodeID(rng.Intn(64))
			if src != dst {
				net.Enqueue(src, dst, 2+rng.Intn(12))
			}
		}
		// Check before Step's trailing Tick clears the per-cycle count:
		// the population invariant holds at every cycle boundary too.
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
		check(c)
	}
	for net.InFlight() > 0 {
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}
	check(-1)
	if probe.delivered == 0 {
		t.Fatal("no packets delivered; test exercised nothing")
	}
	if probe.injectedFlits != probe.deliveredFlits {
		t.Errorf("flits injected=%d delivered=%d after drain", probe.injectedFlits, probe.deliveredFlits)
	}
	if probe.deliveredFlits != net.FlitsConsumed() {
		t.Errorf("probe delivered %d flits, engine consumed %d", probe.deliveredFlits, net.FlitsConsumed())
	}
	if probe.movedFlits != probe.wantMovedFlits {
		t.Errorf("flit moves total %d, want sum(length*hops) = %d", probe.movedFlits, probe.wantMovedFlits)
	}
	if probe.ticks != net.Cycle() {
		t.Errorf("%d ticks over %d cycles", probe.ticks, net.Cycle())
	}
}

// TestProbeUtilizationBounded checks collector utilization stays in [0,1]
// when fed by this engine, where the bound is exact by construction (one
// flit per physical channel per cycle: a one-VC channel's holder sends its
// flits across one after the other).
func TestProbeUtilizationBounded(t *testing.T) {
	mesh := topology.NewMesh2D(8, 8)
	alg, err := vc.New("west-first", mesh)
	if err != nil {
		t.Fatal(err)
	}
	coll := metrics.NewCollector(mesh, metrics.Options{})
	net := New(Config{Routing: alg, Probe: coll})
	rng := rand.New(rand.NewSource(9))
	for c := 0; c < 4000; c++ {
		if c%2 == 0 {
			src := topology.NodeID(rng.Intn(64))
			dst := topology.NodeID(rng.Intn(64))
			if src != dst {
				net.Enqueue(src, dst, 4)
			}
		}
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := coll.Snapshot()
	if snap.MaxChannelUtil > 1 || snap.MaxChannelUtil < 0 {
		t.Errorf("max utilization %v outside [0,1]", snap.MaxChannelUtil)
	}
	for i, u := range snap.ChannelUtil {
		if u < 0 || u > 1 {
			t.Fatalf("channel %d utilization %v outside [0,1]", i, u)
		}
	}
	if snap.MaxChannelUtil == 0 {
		t.Error("no channel carried traffic; test exercised nothing")
	}
}
