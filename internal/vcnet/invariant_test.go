package vcnet

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"turnmodel/internal/topology"
	"turnmodel/internal/vc"
)

// checkInvariants verifies the per-flit engine's structural invariants:
//
//  1. Within a worm, flit positions are strictly decreasing with flit
//     index (no overtaking) and every in-network flit's buffer is marked
//     occupied, with no sharing between flits or worms.
//  2. Channel ownership: a worm owns exactly the channels feeding the
//     path positions its tail flit has not yet crossed, plus its pending
//     head allocation.
//  3. sent/done counters stay consistent with the position array.
//  4. The wait table holds exactly the headers waiting for an output, and
//     visits them in the order of the global request sort it replaced
//     (see checkWaitTable).
//  5. No wake was lost and no recycled worm is still referred to (see
//     lostWake).
func checkInvariants(t *testing.T, n *Network) {
	t.Helper()
	checkWaitTable(t, n)
	if err := lostWake(n); err != nil {
		t.Fatal(err)
	}
	coveredBy := make(map[int32]*worm)
	ownedWant := make(map[int]*worm)
	for _, w := range n.active {
		if w.done > w.sent || w.sent > w.pkt.Length {
			t.Fatalf("%v: done=%d sent=%d", w.pkt, w.done, w.sent)
		}
		prev := len(w.path)
		for k := w.done; k < w.sent; k++ {
			p := w.pos[k]
			if p < 0 || p >= len(w.path) {
				t.Fatalf("%v: flit %d at invalid position %d", w.pkt, k, p)
			}
			if p >= prev {
				t.Fatalf("%v: flit %d overtook flit %d (%d >= %d)", w.pkt, k, k-1, p, prev)
			}
			prev = p
			buf := w.path[p]
			if !n.occupied[buf] {
				t.Fatalf("%v: flit %d's buffer %d not occupied", w.pkt, k, buf)
			}
			if other, ok := coveredBy[buf]; ok {
				t.Fatalf("buffer %d shared by %v and %v", buf, other.pkt, w.pkt)
			}
			coveredBy[buf] = w
		}
		// Ownership window: from just after the tail flit's position (or
		// 1 if the tail has not been injected yet) to the end of path.
		lo := 1
		if w.sent == w.pkt.Length {
			lo = w.pos[w.pkt.Length-1] + 1
		}
		for j := lo; j < len(w.path); j++ {
			from := n.bufRouter(w.path[j-1])
			dir, v := n.bufPort(w.path[j])
			ownedWant[n.ownerKey(from, dir, v)] = w
		}
		if !w.arrived && w.routed {
			head := n.bufRouter(w.headBuf())
			ownedWant[n.ownerKey(head, w.out.Dir, w.out.VC)] = w
		}
	}
	for buf, occ := range n.occupied {
		if occ && coveredBy[int32(buf)] == nil {
			t.Fatalf("buffer %d occupied but unowned", buf)
		}
	}
	for key, owner := range n.owner {
		if owner != ownedWant[key] {
			t.Fatalf("channel %d ownership mismatch", key)
		}
	}
}

// checkWaitTable is the old per-cycle request sort, kept as the wait
// table's oracle: every active worm whose header has neither arrived nor
// been granted an output, sorted by router, header arrival cycle and packet
// ID, must be exactly what walking the table's parts in order visits.
func checkWaitTable(t *testing.T, n *Network) {
	t.Helper()
	var want []*worm
	for _, w := range n.active {
		if !w.arrived && !w.routed {
			want = append(want, w)
		}
	}
	sort.SliceStable(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if a.headRouter != b.headRouter {
			return a.headRouter < b.headRouter
		}
		if a.headerArrival != b.headerArrival {
			return a.headerArrival < b.headerArrival
		}
		return a.pkt.ID < b.pkt.ID
	})
	var got []*worm
	for d := 0; d < n.wait.Parts(); d++ {
		for it := n.wait.Walk(d); it.Next(); {
			got = append(got, it.Waiter())
		}
	}
	if len(got) != len(want) {
		t.Fatalf("cycle %d: wait table holds %d headers, %d are waiting", n.core.Cycle, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cycle %d: wait table visit %d is %v at router %d, the request sort puts %v at router %d there",
				n.core.Cycle, i, got[i].pkt, got[i].headRouter, want[i].pkt, want[i].headRouter)
		}
	}
}

// lostWake is the oracle for what sleeps in this engine — refused
// headers and sources behind an occupied injection buffer; flits are swept
// every cycle. Between two steps:
//
//	(b) No waiter at a sleeping router would be granted if offered: its
//	    candidates are computed and every candidate output virtual channel
//	    is held or on a broken link.
//	(d) Every node with a queued message and a free injection buffer is on
//	    the injection worklist.
//	(e) A worm on a free list is reachable from nowhere else: not the active
//	    list, owner or the wait table.
//
// (The letters are those of internal/network's oracle, whose (a) and (c)
// are about the worms that sleep there.)
func lostWake(n *Network) error {
	cycle := n.core.Cycle
	live := make(map[*worm]bool)
	for _, w := range n.active {
		live[w] = true
		if w.arrived || w.routed || n.wait.Awake(int32(w.headRouter)) {
			continue
		}
		r := w.headRouter
		if r == w.pkt.Dst || !w.candsValid {
			return fmt.Errorf("cycle %d: lost wake: %v waits at sleeping router %d without having been offered (dst %d, cands valid %v)",
				cycle, w.pkt, r, w.pkt.Dst, w.candsValid)
		}
		for _, out := range w.cands {
			if !n.faulted[int(r)*n.dims2+int(out.Dir)] && n.owner[n.ownerKey(r, out.Dir, out.VC)] == nil {
				return fmt.Errorf("cycle %d: lost wake: %v waits at sleeping router %d though its candidate output %v is free",
					cycle, w.pkt, r, out)
			}
		}
	}
	for node := 0; node < n.topo.Nodes(); node++ {
		id := topology.NodeID(node)
		if n.core.QueueLen(id) > 0 && !n.occupied[n.injID(id)] && !n.core.OnWorklist(id) {
			return fmt.Errorf("cycle %d: lost wake: node %d has %d queued messages and a free injection buffer but is off the worklist",
				cycle, node, n.core.QueueLen(id))
		}
	}
	free := make(map[*worm]bool)
	for d := range n.dsc {
		if len(n.dsc[d].injected) != 0 {
			return fmt.Errorf("cycle %d: domain %d still holds %d injected worms", cycle, d, len(n.dsc[d].injected))
		}
		for _, w := range n.dsc[d].free {
			if free[w] || live[w] || w.wait.Listed() || w.pkt != nil {
				return fmt.Errorf("cycle %d: free list of domain %d holds a worm that is listed twice, active, waiting or still has its packet", cycle, d)
			}
			free[w] = true
		}
	}
	for key, w := range n.owner {
		if free[w] {
			return fmt.Errorf("cycle %d: channel %d is owned by a recycled worm", cycle, key)
		}
	}
	return nil
}

func TestVCSimulatorInvariantsUnderRandomTraffic(t *testing.T) {
	algs := []vc.Algorithm{
		vc.DoubleY(topology.NewMesh2D(4, 4)),
		vc.DatelineDOR(topology.NewKaryNCube(4, 2)),
		vc.NewCCCAscending(topology.NewCCC(3)),
	}
	for _, alg := range algs {
		net := New(Config{Routing: alg, WatchdogCycles: 20000})
		topo := alg.Topology()
		rng := rand.New(rand.NewSource(13))
		for c := 0; c < 2500; c++ {
			if c%2 == 0 {
				src := topology.NodeID(rng.Intn(topo.Nodes()))
				dst := topology.NodeID(rng.Intn(topo.Nodes()))
				if src != dst {
					net.Enqueue(src, dst, 1+rng.Intn(25))
				}
			}
			if err := net.Step(); err != nil {
				t.Fatalf("%s: %v", alg.Name(), err)
			}
			checkInvariants(t, net)
		}
		for i := 0; i < 200000 && net.InFlight() > 0; i++ {
			if err := net.Step(); err != nil {
				t.Fatalf("%s drain: %v", alg.Name(), err)
			}
			checkInvariants(t, net)
		}
		if net.InFlight() != 0 {
			t.Fatalf("%s: did not drain", alg.Name())
		}
		for key, owner := range net.owner {
			if owner != nil {
				t.Fatalf("%s: channel %d still owned after drain", alg.Name(), key)
			}
		}
		for buf, occ := range net.occupied {
			if occ {
				t.Fatalf("%s: buffer %d still occupied after drain", alg.Name(), buf)
			}
		}
	}
}

func TestVCSingleFlitPackets(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	net := New(Config{Routing: vc.DoubleY(mesh)})
	want := int64(0)
	for s := topology.NodeID(0); s < 16; s++ {
		for d := topology.NodeID(0); d < 16; d++ {
			if s != d {
				net.Enqueue(s, d, 1)
				want++
			}
		}
	}
	for i := 0; i < 100000 && net.InFlight() > 0; i++ {
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, net)
	}
	if net.PacketsDelivered() != want {
		t.Errorf("delivered %d, want %d", net.PacketsDelivered(), want)
	}
}
