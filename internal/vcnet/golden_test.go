package vcnet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/vc"
)

// The VC goldens pin absolute per-packet outcomes of this engine with more
// than one virtual channel per physical channel, where nothing else can: the
// differential harness in internal/engine compares vcnet with internal/network
// at one virtual channel only. Each digest covers every packet's creation,
// injection and delivery cycle and hop count plus the run's counters; with
// the probe attached it also covers the probe's whole ordered event stream
// (every channel release, blocked span, delivery, abort, retry and drop in
// emission order, and the spans of the waits still under way at the end).
// Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/vcnet -run TestVCGoldens
//
// only when a change of the engine's results is intentional.

// vcGoldenCase is one (topology, algorithm, fault, ejection) setting and the
// traffic it is driven with.
type vcGoldenCase struct {
	name string
	cfg  func() Config
	load vcLoad
}

// vcLoad is a golden case's traffic: every node generates a message with
// probability 1/period per cycle, of 1 to 200 flits drawn uniformly, or —
// when lengths is set — of one of lengths with equal probability; with hot
// set, one message in four goes to node hotspot and the rest to a uniformly
// drawn node. The zero value is period 200, uniform lengths and no hotspot:
// about half a flit per node per cycle, past saturation.
type vcLoad struct {
	period  int
	lengths []int
	hot     bool
	hotspot topology.NodeID
}

func vcGoldenCases() []vcGoldenCase {
	torus := func() *topology.Torus { return topology.NewKaryNCube(8, 2) }
	mesh := func() *topology.Mesh { return topology.NewMesh2D(8, 8) }
	lifted := func(name string) vc.Algorithm {
		a, err := routing.New(name, mesh())
		if err != nil {
			panic(err)
		}
		return vc.Lift(a)
	}
	// The paper's 10/200-flit mix at about 0.05 flits per node per cycle
	// (105 flits a message on average), a quarter of it aimed at the centre
	// of a 16x16 mesh: most flits belong to long worms whose header arrived
	// while their source is still sending, and the hotspot's ejection
	// channel, like double-y's y links, is contended.
	big := topology.NewMesh2D(16, 16)
	low := vcLoad{period: 2100, lengths: []int{10, 200}, hot: true, hotspot: big.ID(topology.Coord{8, 8})}
	return []vcGoldenCase{
		// Every link carries two virtual channels, so every crossing is
		// arbitrated for bandwidth.
		{"torus8-dateline-dor", func() Config { return Config{Routing: vc.DatelineDOR(torus())} }, vcLoad{}},
		{"mesh8-double-y", func() Config { return Config{Routing: vc.DoubleY(mesh())} }, vcLoad{}},
		{"ccc3-ascending", func() Config { return Config{Routing: vc.NewCCCAscending(topology.NewCCC(3))} }, vcLoad{}},
		{"torus8-dateline-dor-faulted-recovery", func() Config {
			t := torus()
			return Config{
				Routing: vc.DatelineDOR(t),
				Faults: []topology.Channel{
					{From: t.ID(topology.Coord{2, 3}), Dir: topology.East},
					{From: t.ID(topology.Coord{7, 5}), Dir: topology.North},
				},
				Recovery: fault.Recovery{Enabled: true, StallCycles: 300},
			}
		}, vcLoad{}},
		{"mesh8-double-y-faulted-recovery-masked", func() Config {
			m := mesh()
			return Config{
				Routing: vc.DoubleY(m),
				Faults: []topology.Channel{
					{From: m.ID(topology.Coord{3, 3}), Dir: topology.East},
					{From: m.ID(topology.Coord{5, 2}), Dir: topology.North},
				},
				Recovery:     fault.Recovery{Enabled: true, StallCycles: 300},
				FaultRouting: fault.RoutingPolicy{Visibility: fault.VisibilityKHop, MisrouteLimit: 3},
			}
		}, vcLoad{}},
		{"mesh8-double-y-uncapped", func() Config {
			return Config{Routing: vc.DoubleY(mesh()), UncappedEjection: true}
		}, vcLoad{}},
		// One virtual channel everywhere, ejection capped: the case the
		// differential harness (uncapped) does not cover.
		{"mesh8-west-first", func() Config { return Config{Routing: lifted("west-first")} }, vcLoad{}},
		{"mesh16-xy-lowload-hotspot", func() Config { return Config{Routing: vc.Lift(routing.XY(big))} }, low},
		{"mesh16-double-y-lowload-hotspot", func() Config { return Config{Routing: vc.DoubleY(big)} }, low},
	}
}

// streamProbe hashes the probe's event stream in the order it arrives.
type streamProbe struct {
	h      hash.Hash
	events int64
}

func (p *streamProbe) put(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		p.h.Write(b[:])
	}
	p.events++
}

func (p *streamProbe) Inject(cycle int64, src, dst topology.NodeID, length int) {
	p.put(1, cycle, int64(src), int64(dst), int64(length))
}
func (p *streamProbe) Blocked(node topology.NodeID, from, to int64) { p.put(2, int64(node), from, to) }
func (p *streamProbe) FlitMove(cycle int64, from topology.NodeID, d topology.Direction, flits int) {
	p.put(3, cycle, int64(from), int64(d), int64(flits))
}
func (p *streamProbe) Deliver(cycle int64, src, dst topology.NodeID, length, hops int, queueDelay, netDelay int64) {
	p.put(4, cycle, int64(src), int64(dst), int64(length), int64(hops), queueDelay, netDelay)
}
func (p *streamProbe) Fault(cycle int64, from topology.NodeID, d topology.Direction, failed bool) {
	f := int64(0)
	if failed {
		f = 1
	}
	p.put(5, cycle, int64(from), int64(d), f)
}
func (p *streamProbe) Abort(cycle int64, src, dst topology.NodeID, length, attempt int) {
	p.put(6, cycle, int64(src), int64(dst), int64(length), int64(attempt))
}
func (p *streamProbe) Retry(cycle int64, src, dst topology.NodeID, attempt int, delay int64) {
	p.put(7, cycle, int64(src), int64(dst), int64(attempt), delay)
}
func (p *streamProbe) Drop(cycle int64, src, dst topology.NodeID, length int, reason metrics.DropReason) {
	p.put(8, cycle, int64(src), int64(dst), int64(length), int64(reason))
}
func (p *streamProbe) Tick(cycle int64) { p.put(9, cycle) }

// vcDigest runs one case at one seed under its load (see vcLoad) for 6000
// cycles and hashes the outcome.
func vcDigest(t *testing.T, c vcGoldenCase, seed int64, probe bool) string {
	t.Helper()
	cfg := c.cfg()
	var sp *streamProbe
	if probe {
		sp = &streamProbe{h: sha256.New()}
		cfg.Probe = sp
	}
	net, pkts := runVCGolden(t, c, cfg, seed, nil)
	net.FlushBlocked() // with a probe, the waits still under way join its stream
	h := sha256.New()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	for _, p := range pkts {
		put(p.ID, p.Created, p.Injected, p.Arrived, int64(p.Hops))
	}
	put(net.Cycle(), net.FlitsConsumed(), net.PacketsDelivered(), net.PacketsDropped(),
		net.PacketsAborted(), net.PacketsRetried(), net.FaultEvents(), net.MaskedFaults(),
		net.MisrouteHops(), int64(net.InFlight()))
	if net.PacketsDelivered() == 0 {
		t.Fatalf("%s: nothing delivered; the digest would be vacuous", c.name)
	}
	t.Logf("%s seed %d: %d enqueued, %d delivered, %d in flight, %d aborted, %d dropped, %d masked",
		c.name, seed, len(pkts), net.PacketsDelivered(), net.InFlight(), net.PacketsAborted(),
		net.PacketsDropped(), net.MaskedFaults())
	if sp != nil {
		h.Write(sp.h.Sum(nil))
		put(sp.events)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func TestVCGoldens(t *testing.T) {
	golden := filepath.Join("testdata", "vc_digests.json")
	got := map[string]string{}
	for _, c := range vcGoldenCases() {
		for _, seed := range []int64{1, 2} {
			for _, probe := range []bool{false, true} {
				mode := "probe-off"
				if probe {
					mode = "probe-on"
				}
				got[fmt.Sprintf("%s/seed%d/%s", c.name, seed, mode)] = vcDigest(t, c, seed, probe)
			}
		}
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d digests, the test computes %d", golden, len(want), len(got))
	}
	for key, g := range got {
		if want[key] != g {
			t.Errorf("%s: digest %s, golden %s (rerun with UPDATE_GOLDEN=1 if the change is intentional)", key, g, want[key])
		}
	}
}

// runVCGolden drives a network built from cfg with the case's load (see
// vcLoad) from the seed for 6000 cycles. at, when non-nil, is called before
// every step and once more at the end.
func runVCGolden(t *testing.T, c vcGoldenCase, cfg Config, seed int64, at func(*Network)) (*Network, []*Packet) {
	t.Helper()
	net := New(cfg)
	nodes := cfg.Routing.Topology().Nodes()
	rng := rand.New(rand.NewSource(seed*104729 + 7))
	period := c.load.period
	if period == 0 {
		period = 200
	}
	var pkts []*Packet
	for net.Cycle() < 6000 {
		if at != nil {
			at(net)
		}
		for node := 0; node < nodes; node++ {
			if rng.Intn(period) != 0 {
				continue
			}
			dst := topology.NodeID(rng.Intn(nodes))
			if c.load.hot && rng.Intn(4) == 0 {
				dst = c.load.hotspot
			}
			if dst == topology.NodeID(node) {
				continue
			}
			var length int
			if ls := c.load.lengths; ls != nil {
				length = ls[rng.Intn(len(ls))]
			} else {
				length = 1 + rng.Intn(200)
			}
			pkts = append(pkts, net.Enqueue(topology.NodeID(node), dst, length))
		}
		if err := net.Step(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	if at != nil {
		at(net)
	}
	return net, pkts
}
