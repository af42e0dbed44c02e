package network

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"turnmodel/internal/fault"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// The policy goldens pin absolute per-packet outcomes for every input x
// output selection policy pair. The differential harnesses in
// internal/engine only compare default-policy paths against each other, so
// without these an arbitration change that shifted oldest-first, random or
// straight-first results in every mode at once would pass them all. Each
// digest covers every packet's injection cycle, delivery cycle, hop count
// and abort count plus the run's counter totals. Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/network -run TestPolicyGoldens
//
// only when an arbitration change is intentional.

// goldenWorkload is one (topology, algorithm, fault, delay) setting the
// policy pairs are crossed with.
type goldenWorkload struct {
	name   string
	config func(t *testing.T) Config
	rate   float64
	cycles int64
}

func goldenWorkloads() []goldenWorkload {
	mustAlg := func(t *testing.T, name string, topo topology.Topology) routing.Algorithm {
		t.Helper()
		a, err := routing.New(name, topo)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	return []goldenWorkload{
		{"mesh16-west-first", func(t *testing.T) Config {
			return Config{Routing: mustAlg(t, "west-first", topology.NewMesh2D(16, 16))}
		}, 0.012, 500},
		{"cube6-p-cube", func(t *testing.T) Config {
			return Config{Routing: mustAlg(t, "p-cube", topology.NewHypercube(6))}
		}, 0.03, 500},
		{"mesh8-faulted-recovery", func(t *testing.T) Config {
			mesh := topology.NewMesh2D(8, 8)
			return Config{
				Routing: mustAlg(t, "west-first", mesh),
				Faults: []topology.Channel{
					{From: mesh.ID(topology.Coord{3, 3}), Dir: topology.East},
					{From: mesh.ID(topology.Coord{5, 2}), Dir: topology.North},
				},
				FaultPlan:    fault.Plan{Rate: 2e-5, Repair: 200, Seed: 17},
				Recovery:     fault.Recovery{Enabled: true, StallCycles: 150},
				FaultRouting: fault.RoutingPolicy{Visibility: fault.VisibilityKHop, MisrouteLimit: 2},
			}
		}, 0.02, 1500},
		{"mesh16-west-first-delay3", func(t *testing.T) Config {
			return Config{Routing: mustAlg(t, "west-first", topology.NewMesh2D(16, 16)), RoutingDelay: 3}
		}, 0.01, 500},
	}
}

// policyDigest runs one workload under one policy pair and seed: Bernoulli
// per-node generation for the workload's cycles, then a drain, hashed.
func policyDigest(t *testing.T, w goldenWorkload, in InputPolicy, out OutputPolicy, seed int64) string {
	t.Helper()
	cfg := w.config(t)
	cfg.Input, cfg.Output, cfg.Seed = in, out, seed
	net, pkts := runGolden(t, w, cfg, nil)
	h := sha256.New()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	for _, p := range pkts {
		put(p.ID, int64(p.Src), int64(p.Dst), int64(p.Length), p.Created, p.Injected, p.Arrived, int64(p.Hops), int64(p.Aborts))
	}
	put(net.Cycle(), net.FlitsConsumed(), net.PacketsDelivered(), net.PacketsDropped(),
		net.PacketsAborted(), net.PacketsRetried(), net.FaultEvents(), net.MaskedFaults(), net.MisrouteHops())
	if net.PacketsDelivered() == 0 {
		t.Fatalf("%s: nothing delivered; the digest would be vacuous", w.name)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func TestPolicyGoldens(t *testing.T) {
	golden := filepath.Join("testdata", "policy_digests.json")
	got := map[string]string{}
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
					got[key] = policyDigest(t, w, in, out, seed)
				}
			}
		}
	}
	if len(got) != 4*2*3*2 {
		t.Fatalf("expected 48 digests, computed %d", len(got))
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

// runGolden drives a network built from cfg with the workload's traffic:
// Bernoulli per-node generation for the workload's cycles, drawn from the
// seed in cfg, then a drain. at, when non-nil, is called before every
// generation step and once more when generation ends, before the drain.
func runGolden(t *testing.T, w goldenWorkload, cfg Config, at func(*Network)) (*Network, []*Packet) {
	t.Helper()
	net := New(cfg)
	nodes := cfg.Routing.Topology().Nodes()
	rng := rand.New(rand.NewSource(cfg.Seed*7919 + 1))
	var pkts []*Packet
	for net.Cycle() < w.cycles {
		if at != nil {
			at(net)
		}
		for node := 0; node < nodes; node++ {
			if rng.Float64() >= w.rate {
				continue
			}
			dst := topology.NodeID(rng.Intn(nodes))
			if dst == topology.NodeID(node) {
				continue
			}
			pkts = append(pkts, net.Enqueue(topology.NodeID(node), dst, 1+rng.Intn(24)))
		}
		if err := net.Step(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
	}
	if at != nil {
		at(net)
	}
	for limit := net.Cycle() + 60000; net.InFlight() > 0; {
		if net.Cycle() > limit {
			t.Fatalf("%s: %d packets still in flight after drain limit", w.name, net.InFlight())
		}
		if err := net.Step(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
	}
	return net, pkts
}
