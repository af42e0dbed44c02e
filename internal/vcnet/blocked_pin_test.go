package vcnet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"turnmodel/internal/metrics"
	"turnmodel/internal/topology"
)

// The blocked pins hold, for every VC-golden case and seed, what the metrics
// collector reported over a measurement window from cycle 1500 to the end
// of the 6000-cycle run, with traffic still in flight: the blocked
// header-cycles in total and per node, and the flits each channel carried
// in the window (node*dirs+dir). They were cut when a probe still saw one
// Blocked event per blocked header per cycle and one FlitMove per flit per
// crossing, and are never regenerated: blocked spans must add up to the
// same counts exactly. Flits are now reported when a packet's tail crosses
// a channel, so a channel's count may shift only by the worms straddling a
// window edge on it — at most one per virtual channel at each edge — and by
// the flits of worms aborted in the window, which release without a report.

// blockedPin is one case's window.
type blockedPin struct {
	Window       [2]int64 `json:"window"`
	BlockedTotal int64    `json:"blocked_total"`
	NodeBlocked  []int64  `json:"node_blocked"`
	Flits        []int64  `json:"flits"`
}

// chanFlits counts the flits of FlitMove events per channel (node*dirs+dir)
// over the window, and over the whole run against the length*hops of the
// packets delivered, and the flits of the worms aborted in the window.
type chanFlits struct {
	metrics.NopProbe
	dirs            int
	flits           []int64
	moved, want     int64
	abortedInWindow int64
}

func (p *chanFlits) FlitMove(_ int64, from topology.NodeID, d topology.Direction, flits int) {
	p.flits[int(from)*p.dirs+int(d)] += int64(flits)
	p.moved += int64(flits)
}

func (p *chanFlits) Deliver(_ int64, _, _ topology.NodeID, length, hops int, _, _ int64) {
	p.want += int64(length) * int64(hops)
}

func (p *chanFlits) Abort(cycle int64, _, _ topology.NodeID, length, _ int) {
	if cycle >= pinStart {
		p.abortedInWindow += int64(length)
	}
}

const pinStart = 1500

// pinWindow runs one golden case at one seed with a collector attached and
// returns the collector's window, then drains the network and checks that
// the channels reported length*hops flits for every packet delivered — and
// under recovery more, by the channels the tails of aborted worms crossed
// before the abort. It also returns the bound on a channel's flit shift
// (see above): the flits of the worms one per virtual channel can straddle
// an edge with, and of those aborted in the window.
func pinWindow(t *testing.T, c vcGoldenCase, seed int64) (pin blockedPin, edge, aborted int64) {
	t.Helper()
	cfg := c.cfg()
	topo := cfg.Routing.Topology()
	coll := metrics.NewCollector(topo, metrics.Options{})
	counter := &chanFlits{dirs: 2 * topo.Dims(), flits: make([]int64, topo.Nodes()*2*topo.Dims())}
	cfg.Probe = metrics.Tee(coll, counter)
	net, pkts := runVCGolden(t, c, cfg, seed, func(net *Network) {
		switch net.Cycle() {
		case pinStart:
			coll.BeginMeasurement(pinStart)
			clear(counter.flits)
		case 6000:
			net.FlushBlocked()
			snap := coll.Snapshot()
			pin = blockedPin{
				Window:       [2]int64{pinStart, net.Cycle()},
				BlockedTotal: snap.BlockedCycles,
				NodeBlocked:  snap.NodeBlocked,
				Flits:        slices.Clone(counter.flits),
			}
			aborted = counter.abortedInWindow
		}
	})
	for limit := net.Cycle() + 200000; net.InFlight() > 0; {
		if net.Cycle() > limit {
			t.Fatalf("%s: %d packets still in flight after drain limit", c.name, net.InFlight())
		}
		if err := net.Step(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	if counter.moved != counter.want && (net.PacketsAborted() == 0 || counter.moved < counter.want) || counter.want == 0 {
		t.Errorf("%s seed %d: after the drain the channels reported %d flits, the delivered packets' length*hops is %d (%d aborts)",
			c.name, seed, counter.moved, counter.want, net.PacketsAborted())
	}
	longest := 0
	for _, p := range pkts {
		longest = max(longest, p.Length)
	}
	return pin, int64(net.maxVC) * int64(longest-1), aborted
}

func TestBlockedTotalsPinned(t *testing.T) {
	golden := filepath.Join("testdata", "blocked_totals.json")
	got := map[string]blockedPin{}
	edges, aborts := map[string]int64{}, map[string]int64{}
	for _, c := range vcGoldenCases() {
		for _, seed := range []int64{1, 2} {
			key := fmt.Sprintf("%s/seed%d", c.name, seed)
			got[key], edges[key], aborts[key] = pinWindow(t, c, seed)
		}
	}
	want := readPins(t, golden)
	if len(want) != len(got) {
		t.Errorf("%s holds %d windows, the test computes %d", golden, len(want), len(got))
	}
	for key, g := range got {
		wp, ok := want[key]
		if !ok {
			t.Errorf("%s: not pinned", key)
			continue
		}
		if g.Window != wp.Window || g.BlockedTotal != wp.BlockedTotal || !slices.Equal(g.NodeBlocked, wp.NodeBlocked) {
			t.Errorf("%s: window %v blocked %d (per node %v), pinned %v blocked %d (per node %v)",
				key, g.Window, g.BlockedTotal, g.NodeBlocked, wp.Window, wp.BlockedTotal, wp.NodeBlocked)
		}
		if len(g.Flits) != len(wp.Flits) {
			t.Fatalf("%s: %d channels, pinned %d", key, len(g.Flits), len(wp.Flits))
		}
		var largest int64
		for ch, f := range g.Flits {
			shift := f - wp.Flits[ch]
			if shift > edges[key] || shift < -edges[key]-aborts[key] {
				t.Errorf("%s: channel %d carried %d flits in the window, pinned %d: a shift of %d, outside [%d, %d]",
					key, ch, f, wp.Flits[ch], shift, -edges[key]-aborts[key], edges[key])
			}
			if shift < 0 {
				shift = -shift
			}
			largest = max(largest, shift)
		}
		t.Logf("%s: largest channel flit shift %d (edge bound %d, aborted flits %d)", key, largest, edges[key], aborts[key])
	}
}

func readPins(t *testing.T, path string) map[string]blockedPin {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]blockedPin
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}
