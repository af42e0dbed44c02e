package network

import (
	"math/rand"
	"testing"

	"turnmodel/internal/metrics"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
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
	wantMovedFlits int64 // sum of length*hops over delivered packets
	blocked        int64
	ticks          int64
	lastTick       int64
	faults         int64
	repairs        int64
	aborted        int64
	abortedFlits   int64
	retried        int64
	dropped        int64
}

func (p *ledgerProbe) Inject(cycle int64, src, dst topology.NodeID, length int) {
	p.injected++
	p.injectedFlits += int64(length)
}

func (p *ledgerProbe) Blocked(node topology.NodeID, from, to int64) { p.blocked += to - from }

func (p *ledgerProbe) FlitMove(cycle int64, from topology.NodeID, d topology.Direction, flits int) {
	p.movedFlits += int64(flits)
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
	} else {
		p.repairs++
	}
}

func (p *ledgerProbe) Abort(cycle int64, src, dst topology.NodeID, length, attempt int) {
	p.aborted++
	p.abortedFlits += int64(length)
	if attempt < 1 {
		p.t.Errorf("abort of %d->%d with attempt %d", src, dst, attempt)
	}
}

func (p *ledgerProbe) Retry(cycle int64, src, dst topology.NodeID, attempt int, delay int64) {
	p.retried++
	if delay <= 0 {
		p.t.Errorf("retry of %d->%d with delay %d", src, dst, delay)
	}
}

func (p *ledgerProbe) Drop(cycle int64, src, dst topology.NodeID, length int, reason metrics.DropReason) {
	p.dropped++
}

func (p *ledgerProbe) Tick(cycle int64) {
	if p.ticks > 0 && cycle != p.lastTick+1 {
		p.t.Errorf("Tick cycle jumped %d -> %d", p.lastTick, cycle)
	}
	p.lastTick = cycle
	p.ticks++
}

func queuedPackets(n *Network) int {
	total := 0
	for id := 0; id < n.Topology().Nodes(); id++ {
		total += n.QueueLen(topology.NodeID(id))
	}
	return total
}

// TestProbeConservation drives random traffic and checks, at every step,
// that probe events balance the engine's own population counts: packets
// injected equal packets delivered plus packets still in the network.
// After draining, the flit-move total must equal the sum of length*hops
// over all delivered packets (the network engine batches a worm's flits
// at tail-channel release, so totals — not per-cycle counts — are exact).
func TestProbeConservation(t *testing.T) {
	mesh := topology.NewMesh2D(8, 8)
	alg, err := routing.New("west-first", mesh)
	if err != nil {
		t.Fatal(err)
	}
	probe := &ledgerProbe{t: t}
	net := New(Config{Routing: alg, Seed: 11, Probe: probe})
	rng := rand.New(rand.NewSource(7))

	check := func(step int) {
		t.Helper()
		inNet := net.InFlight() - queuedPackets(net)
		if probe.injected != probe.delivered+inNet {
			t.Fatalf("step %d: injected=%d delivered=%d in-network=%d",
				step, probe.injected, probe.delivered, inNet)
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

// TestProbeUtilizationBounded checks that a collector fed by the real
// engine never reports more flits on a channel than cycles in the window.
func TestProbeUtilizationBounded(t *testing.T) {
	mesh := topology.NewMesh2D(8, 8)
	alg, err := routing.New("negative-first", mesh)
	if err != nil {
		t.Fatal(err)
	}
	coll := metrics.NewCollector(mesh, metrics.Options{})
	net := New(Config{Routing: alg, Seed: 3, Probe: coll})
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
	net.FlushBlocked()
	snap := coll.Snapshot()
	if snap.MaxChannelUtil > 1 || snap.MaxChannelUtil < 0 {
		t.Errorf("max utilization %v outside [0,1]", snap.MaxChannelUtil)
	}
	if snap.MeanChannelUtil > snap.MaxChannelUtil {
		t.Errorf("mean %v > max %v", snap.MeanChannelUtil, snap.MaxChannelUtil)
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

// TestNegativeRoutingDelayBlocksAsZero: a routing delay below zero decides
// as fast as none, so the blocked spans a probe sees must add up to what
// they do at zero, not reach back before the header arrived.
func TestNegativeRoutingDelayBlocksAsZero(t *testing.T) {
	w := goldenWorkloads()[0]
	blocked := func(delay int64) int64 {
		cfg := w.config(t)
		probe := &ledgerProbe{t: t}
		cfg.RoutingDelay, cfg.Seed, cfg.Probe = delay, 1, probe
		runGolden(t, w, cfg, nil)
		return probe.blocked
	}
	if zero, negative := blocked(0), blocked(-2); zero == 0 || negative != zero {
		t.Fatalf("blocked header-cycles: %d at delay 0, %d at delay -2", zero, negative)
	}
}
