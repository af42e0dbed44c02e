package network

import (
	"math/rand"
	"testing"

	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

func TestLowestDimensionPolicy(t *testing.T) {
	p := LowestDimension{}
	if p.Name() != "xy" {
		t.Errorf("Name() = %q", p.Name())
	}
	cands := []topology.Direction{topology.East, topology.North}
	d, ok := p.Choose(cands, func(topology.Direction) bool { return true }, topology.Invalid, nil)
	if !ok || d != topology.East {
		t.Errorf("Choose = %v,%v; want east", d, ok)
	}
	// East busy: falls to north.
	d, ok = p.Choose(cands, func(d topology.Direction) bool { return d != topology.East }, topology.Invalid, nil)
	if !ok || d != topology.North {
		t.Errorf("Choose = %v,%v; want north", d, ok)
	}
	// All busy.
	if _, ok = p.Choose(cands, func(topology.Direction) bool { return false }, topology.Invalid, nil); ok {
		t.Error("Choose succeeded with nothing free")
	}
	if _, ok = p.Choose(nil, func(topology.Direction) bool { return true }, topology.Invalid, nil); ok {
		t.Error("Choose succeeded with no candidates")
	}
}

func TestRandomOutputPolicy(t *testing.T) {
	p := RandomOutput{}
	if p.Name() != "random" {
		t.Errorf("Name() = %q", p.Name())
	}
	rng := rand.New(rand.NewSource(5))
	cands := []topology.Direction{topology.East, topology.North}
	seen := map[topology.Direction]int{}
	for i := 0; i < 1000; i++ {
		d, ok := p.Choose(cands, func(topology.Direction) bool { return true }, topology.Invalid, rng)
		if !ok {
			t.Fatal("Choose failed with all free")
		}
		seen[d]++
	}
	if seen[topology.East] < 300 || seen[topology.North] < 300 {
		t.Errorf("random policy is skewed: %v", seen)
	}
	if _, ok := p.Choose(cands, func(topology.Direction) bool { return false }, topology.Invalid, rng); ok {
		t.Error("Choose succeeded with nothing free")
	}
	// Only one free: must pick it.
	d, ok := p.Choose(cands, func(d topology.Direction) bool { return d == topology.North }, topology.Invalid, rng)
	if !ok || d != topology.North {
		t.Errorf("Choose = %v,%v; want north", d, ok)
	}
}

func TestStraightFirstPolicy(t *testing.T) {
	p := StraightFirst{}
	if p.Name() != "straight-first" {
		t.Errorf("Name() = %q", p.Name())
	}
	cands := []topology.Direction{topology.East, topology.North}
	// Arrived travelling north: prefers north although east is lower.
	d, ok := p.Choose(cands, func(topology.Direction) bool { return true }, topology.North, nil)
	if !ok || d != topology.North {
		t.Errorf("Choose = %v,%v; want north (straight)", d, ok)
	}
	// Straight blocked: lowest dimension.
	d, ok = p.Choose(cands, func(d topology.Direction) bool { return d != topology.North }, topology.North, nil)
	if !ok || d != topology.East {
		t.Errorf("Choose = %v,%v; want east", d, ok)
	}
	// From injection: lowest dimension.
	d, ok = p.Choose(cands, func(topology.Direction) bool { return true }, topology.Invalid, nil)
	if !ok || d != topology.East {
		t.Errorf("Choose = %v,%v; want east", d, ok)
	}
}

// servedBefore is the service order an input policy defines: its key,
// then the packet ID. The engine realizes it by filing waiting headers in
// key order (engine.WaitTable); tests use it directly, and as the
// comparator of the global request sort kept as a test oracle.
func servedBefore(p InputPolicy, a, b *worm) bool {
	if ka, kb := p.Key(a), p.Key(b); ka != kb {
		return ka < kb
	}
	return a.pkt.ID < b.pkt.ID
}

func TestInputPolicies(t *testing.T) {
	a := &worm{pkt: &Packet{ID: 1, Created: 10}, headerArrival: 5}
	b := &worm{pkt: &Packet{ID: 2, Created: 3}, headerArrival: 7}
	fcfs := LocalFCFS{}
	if fcfs.Name() != "local-fcfs" {
		t.Errorf("Name() = %q", fcfs.Name())
	}
	if !servedBefore(fcfs, a, b) || servedBefore(fcfs, b, a) {
		t.Error("FCFS must favor the earlier header arrival")
	}
	// Tie on arrival: lower ID.
	c := &worm{pkt: &Packet{ID: 3}, headerArrival: 5}
	if !servedBefore(fcfs, a, c) {
		t.Error("FCFS tie-break by ID failed")
	}
	oldest := OldestFirst{}
	if oldest.Name() != "oldest-first" {
		t.Errorf("Name() = %q", oldest.Name())
	}
	if !servedBefore(oldest, b, a) || servedBefore(oldest, a, b) {
		t.Error("OldestFirst must favor the earlier creation")
	}
	d := &worm{pkt: &Packet{ID: 9, Created: 10}}
	if !servedBefore(oldest, a, d) {
		t.Error("OldestFirst tie-break by ID failed")
	}
}

func TestRandomOutputPolicyInNetwork(t *testing.T) {
	// End-to-end smoke test: the random policy delivers everything too.
	mesh := topology.NewMesh2D(4, 4)
	a, err := routing.New("west-first", mesh)
	if err != nil {
		t.Fatal(err)
	}
	net := New(Config{Routing: a, Output: RandomOutput{}, Input: OldestFirst{}, Seed: 3})
	want := int64(0)
	for s := topology.NodeID(0); s < 16; s++ {
		for d := topology.NodeID(0); d < 16; d++ {
			if s != d {
				net.Enqueue(s, d, 5)
				want++
			}
		}
	}
	run(t, net, 100000)
	if net.PacketsDelivered() != want {
		t.Errorf("delivered %d, want %d", net.PacketsDelivered(), want)
	}
}
