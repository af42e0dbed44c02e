package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"turnmodel/internal/fault"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// The blocked pins hold the metrics snapshot's blocked header-cycles, in
// total and per node, and a digest of its channel utilizations for three
// Run points: figure 14 saturated, the faulted comparison's
// recovery+masking mode, and figure 14 with a three-cycle routing delay.
// They were cut when a probe still saw one Blocked event per blocked header
// per cycle, and are never regenerated: the spans measure closes its window
// with must add up to the same counts exactly.

// blockedPin is one point's snapshot.
type blockedPin struct {
	BlockedTotal int64   `json:"blocked_total"`
	NodeBlocked  []int64 `json:"node_blocked"`
	UtilDigest   string  `json:"util_digest"`
}

func blockedPinPoints(t *testing.T) map[string]Config {
	t.Helper()
	mesh := topology.NewMesh2D(16, 16)
	westFirst, err := routing.New("west-first", mesh)
	if err != nil {
		t.Fatal(err)
	}
	point := func(pattern traffic.Pattern, rate float64) Config {
		return Config{Routing: westFirst, RunParams: RunParams{
			Pattern:       pattern,
			InjectionRate: rate,
			WarmupCycles:  1500,
			MeasureCycles: 3000,
			Seed:          5,
			Metrics:       true,
		}}
	}
	transpose := traffic.NewMeshTranspose(mesh)
	saturated := point(transpose, 0.12)
	faulted := point(traffic.Uniform{Topo: mesh}, 0.04)
	mode := ResilienceModes()[2]
	if mode.Name != "recovery+masking" {
		t.Fatalf("resilience mode 2 is %q", mode.Name)
	}
	faulted.FaultPlan = fault.Plan{Rate: 5e-6, Seed: 6}
	faulted.Recovery = fault.Recovery{Enabled: mode.Recovery}
	faulted.FaultRouting = mode.FaultRouting
	delayed := point(transpose, 0.05)
	delayed.RoutingDelay = 3
	return map[string]Config{
		"figure14-saturated":               saturated,
		"faulted-compare-recovery+masking": faulted,
		"figure14-routing-delay3":          delayed,
	}
}

func TestBlockedTotalsPinned(t *testing.T) {
	golden := filepath.Join("testdata", "blocked_totals.json")
	got := map[string]blockedPin{}
	for name, cfg := range blockedPinPoints(t) {
		s := Run(cfg).Metrics
		h := sha256.New()
		var b [8]byte
		for _, u := range s.ChannelUtil {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(u))
			h.Write(b[:])
		}
		got[name] = blockedPin{s.BlockedCycles, s.NodeBlocked, hex.EncodeToString(h.Sum(nil)[:12])}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]blockedPin
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d points, the test computes %d", golden, len(want), len(got))
	}
	for name, g := range got {
		w := want[name]
		if g.BlockedTotal != w.BlockedTotal || !slices.Equal(g.NodeBlocked, w.NodeBlocked) {
			t.Errorf("%s: blocked %d (per node %v), pinned %d (per node %v)",
				name, g.BlockedTotal, g.NodeBlocked, w.BlockedTotal, w.NodeBlocked)
		}
		if g.UtilDigest != w.UtilDigest {
			t.Errorf("%s: channel utilization digest %s, pinned %s", name, g.UtilDigest, w.UtilDigest)
		}
		if g.BlockedTotal == 0 {
			t.Errorf("%s: no header blocked; the pin checks nothing", name)
		}
	}
}
