package network

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"turnmodel/internal/metrics"
	"turnmodel/internal/topology"
)

// The blocked pins hold, for every policy-golden configuration, what the
// metrics collector reported over a measurement window that opens a quarter
// into generation and closes when generation ends, with traffic still in
// flight: the blocked header-cycles in total and per node, and the flits
// each channel carried in the window. They were cut when a probe still saw
// one Blocked event per blocked header per cycle, and are never
// regenerated: blocked spans must add up to the same counts exactly, and
// the flits, reported at a channel's release then as now, must not move.

// blockedPin is one configuration's window.
type blockedPin struct {
	Window       [2]int64 `json:"window"`
	BlockedTotal int64    `json:"blocked_total"`
	NodeBlocked  []int64  `json:"node_blocked"`
	FlitsTotal   int64    `json:"flits_total"`
	FlitsDigest  string   `json:"flits_digest"`
}

// chanFlits counts the flits of FlitMove events per channel (node*dirs+dir)
// over the window, and over the whole run against the length*hops of the
// packets delivered.
type chanFlits struct {
	metrics.NopProbe
	dirs        int
	flits       []int64
	moved, want int64
}

func (p *chanFlits) FlitMove(_ int64, from topology.NodeID, d topology.Direction, flits int) {
	p.flits[int(from)*p.dirs+int(d)] += int64(flits)
	p.moved += int64(flits)
}

func (p *chanFlits) Deliver(_ int64, _, _ topology.NodeID, length, hops int, _, _ int64) {
	p.want += int64(length) * int64(hops)
}

// pinWindow runs a golden workload under one policy pair and seed with a
// collector attached and returns the collector's window. After the drain
// the channels must have reported length*hops flits for every packet
// delivered — and under recovery more, by the channels the tails of
// aborted worms crossed before the abort.
func pinWindow(t *testing.T, w goldenWorkload, in InputPolicy, out OutputPolicy, seed int64) blockedPin {
	t.Helper()
	cfg := w.config(t)
	cfg.Input, cfg.Output, cfg.Seed = in, out, seed
	topo := cfg.Routing.Topology()
	coll := metrics.NewCollector(topo, metrics.Options{})
	counter := &chanFlits{dirs: 2 * topo.Dims(), flits: make([]int64, topo.Nodes()*2*topo.Dims())}
	cfg.Probe = metrics.Tee(coll, counter)
	start := w.cycles / 4
	var pin blockedPin
	net, _ := runGolden(t, w, cfg, func(net *Network) {
		switch net.Cycle() {
		case start:
			coll.BeginMeasurement(start)
			clear(counter.flits)
		case w.cycles:
			net.FlushBlocked()
			snap := coll.Snapshot()
			pin = blockedPin{
				Window:       [2]int64{start, net.Cycle()},
				BlockedTotal: snap.BlockedCycles,
				NodeBlocked:  snap.NodeBlocked,
			}
			pin.FlitsTotal, pin.FlitsDigest = flitsDigest(counter.flits)
		}
	})
	if counter.moved != counter.want && (net.PacketsAborted() == 0 || counter.moved < counter.want) || counter.want == 0 {
		t.Errorf("%s seed %d: after the drain the channels reported %d flits, the delivered packets' length*hops is %d (%d aborts)",
			w.name, seed, counter.moved, counter.want, net.PacketsAborted())
	}
	return pin
}

// flitsDigest sums per-channel flit counts and hashes them in order.
func flitsDigest(flits []int64) (int64, string) {
	h := sha256.New()
	var total int64
	var b [8]byte
	for _, f := range flits {
		total += f
		binary.LittleEndian.PutUint64(b[:], uint64(f))
		h.Write(b[:])
	}
	return total, hex.EncodeToString(h.Sum(nil)[:12])
}

func TestBlockedTotalsPinned(t *testing.T) {
	golden := filepath.Join("testdata", "blocked_totals.json")
	got := map[string]blockedPin{}
	for _, w := range goldenWorkloads() {
		for _, inName := range InputPolicyNames() {
			for _, outName := range OutputPolicyNames() {
				in, err := NewInputPolicy(inName)
				if err != nil {
					t.Fatal(err)
				}
				out, err := NewOutputPolicy(outName)
				if err != nil {
					t.Fatal(err)
				}
				for _, seed := range []int64{1, 2} {
					key := fmt.Sprintf("%s/%s/%s/seed%d", w.name, inName, outName, seed)
					got[key] = pinWindow(t, w, in, out, seed)
				}
			}
		}
	}
	want := readPins(t, golden)
	if len(want) != len(got) {
		t.Errorf("%s holds %d windows, the test computes %d", golden, len(want), len(got))
	}
	var blocked int64
	for key, g := range got {
		blocked += g.BlockedTotal
		wp, ok := want[key]
		if !ok {
			t.Errorf("%s: not pinned", key)
			continue
		}
		if g.Window != wp.Window || g.BlockedTotal != wp.BlockedTotal || !slices.Equal(g.NodeBlocked, wp.NodeBlocked) {
			t.Errorf("%s: window %v blocked %d (per node %v), pinned %v blocked %d (per node %v)",
				key, g.Window, g.BlockedTotal, g.NodeBlocked, wp.Window, wp.BlockedTotal, wp.NodeBlocked)
		}
		if g.FlitsTotal != wp.FlitsTotal || g.FlitsDigest != wp.FlitsDigest {
			t.Errorf("%s: channel flits total %d digest %s, pinned %d %s",
				key, g.FlitsTotal, g.FlitsDigest, wp.FlitsTotal, wp.FlitsDigest)
		}
	}
	if blocked == 0 {
		t.Error("no configuration blocked a header; the pins check nothing")
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
