package network

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// activeWorms walks the active list, checking its links as it goes.
func activeWorms(t *testing.T, n *Network) []*worm {
	t.Helper()
	var out []*worm
	var prev *worm
	for w := n.active.head; w != nil; prev, w = w, w.next {
		if w.prev != prev {
			t.Fatalf("cycle %d: active list: %v's back link is broken", n.core.Cycle, w.pkt)
		}
		out = append(out, w)
	}
	if n.active.tail != prev || n.active.len != len(out) {
		t.Fatalf("cycle %d: active list: walked %d worms to %p, header says %d to %p",
			n.core.Cycle, len(out), prev, n.active.len, n.active.tail)
	}
	return out
}

// progress reports the flits the worm has sent and delivered before the given
// cycle starts. For a worm asleep on a timer that is more than its fields say:
// it has sent and delivered one flit in every cycle since it arrived, and
// will have sent its last when cycle wakeAt starts.
func (w *worm) progress(cycle int64) (sent, delivered int) {
	if w.wakeAt == 0 {
		return w.sent, w.delivered
	}
	slept := w.pkt.Length - w.sent - int(w.wakeAt-cycle)
	return w.sent + slept, w.delivered + slept
}

// stallVictims is the per-cycle scan of the active list that recoveryPhase
// ran before stall timeouts became timers, kept as their oracle: the packets
// of the worms the step about to run must abort, in the order it must abort
// them in.
func stallVictims(n *Network) []*Packet {
	c := &n.core
	if !c.Recovery.Enabled {
		return nil
	}
	var victims []*Packet
	for w := n.active.head; w != nil; w = w.next {
		if !w.arrived && c.Cycle-w.headerArrival >= c.Recovery.StallCycles {
			victims = append(victims, w.pkt)
		}
	}
	return victims
}

// stepVictimsChecked steps once and checks the step against stallVictims: the
// worms the scan named, and no others, were aborted once each. (The order is
// checked where a probe shows it: see chaosProbe.)
func stepVictimsChecked(t *testing.T, n *Network) error {
	t.Helper()
	want := stallVictims(n)
	before := make([]int, len(want))
	for i, p := range want {
		before[i] = p.Aborts
	}
	aborted := n.PacketsAborted()
	err := n.Step()
	for i, p := range want {
		if p.Aborts != before[i]+1 {
			t.Fatalf("cycle %d: %v stood still for %d cycles and was aborted %d times by the step",
				n.core.Cycle-1, p, n.core.Recovery.StallCycles, p.Aborts-before[i])
		}
	}
	if got := n.PacketsAborted() - aborted; got != int64(len(want)) {
		t.Fatalf("cycle %d: the step aborted %d worms, the scan of the active list names %d", n.core.Cycle-1, got, len(want))
	}
	return err
}

// checkInvariants verifies the simulator's structural invariants:
//
//  1. The in-network flits of every worm occupy exactly the contiguous
//     suffix of its path, every such buffer is marked occupied, and no two
//     worms share a buffer.
//  2. Every output channel owned in outOwner is owned by an active worm,
//     and the set of channels a worm owns is exactly the channels between
//     its tail and head plus its pending head allocation.
//  3. Flit conservation: sent - delivered flits are in the network, with
//     sent and delivered as of this cycle boundary (see progress).
//  4. The wait table holds exactly the headers waiting for an output, and
//     visits them in the order of the global request sort it replaced
//     (see checkWaitTable).
//  5. No wake was lost and no recycled worm is still referred to (see
//     lostWake).
func checkInvariants(t *testing.T, n *Network) {
	t.Helper()
	active := activeWorms(t, n)
	checkWaitTable(t, n, active)
	if err := lostWake(n, active); err != nil {
		t.Fatal(err)
	}
	coveredBy := make(map[int32]*worm)
	ownedWant := make(map[int32]*worm) // key: router*2n+dir
	dims2 := 2 * n.dims
	for _, w := range active {
		sent, delivered := w.progress(n.core.Cycle)
		inNet := sent - delivered
		if inNet < 1 || inNet != w.inNetwork() {
			t.Fatalf("%v: %d flits in network, inNetwork() says %d", w.pkt, inNet, w.inNetwork())
		}
		if sent < delivered || sent > w.pkt.Length || delivered < 0 {
			t.Fatalf("%v: sent=%d delivered=%d", w.pkt, sent, delivered)
		}
		tailIdx := len(w.path) - inNet
		if tailIdx < 0 {
			t.Fatalf("%v: window longer than path (%d flits, %d buffers)", w.pkt, inNet, len(w.path))
		}
		if sent < w.pkt.Length && tailIdx != 0 {
			t.Fatalf("%v: still injecting but tail at path[%d]", w.pkt, tailIdx)
		}
		for i := tailIdx; i < len(w.path); i++ {
			buf := w.path[i]
			if !n.occupied[buf] {
				t.Fatalf("%v: window buffer %d not marked occupied", w.pkt, buf)
			}
			if other, ok := coveredBy[buf]; ok {
				t.Fatalf("buffer %d covered by both %v and %v", buf, other.pkt, w.pkt)
			}
			coveredBy[buf] = w
		}
		// Channels still held: those feeding path[j] for j > tailIdx,
		// plus the pending allocation at the head.
		for j := tailIdx + 1; j < len(w.path); j++ {
			from := n.bufRouter(w.path[j-1])
			dir := n.bufPort(w.path[j])
			key := int32(int(from)*dims2 + dir)
			ownedWant[key] = w
		}
		if !w.arrived && w.outDir != noDirection {
			head := n.bufRouter(w.headBuf())
			key := int32(int(head)*dims2 + int(w.outDir))
			ownedWant[key] = w
		}
	}
	// Every occupied buffer must belong to some worm.
	for buf, occ := range n.occupied {
		if occ && coveredBy[int32(buf)] == nil {
			t.Fatalf("buffer %d occupied but covered by no worm", buf)
		}
	}
	// outOwner must match the expected ownership exactly.
	for key, owner := range n.outOwner {
		want := ownedWant[int32(key)]
		if owner != want {
			wantPkt, gotPkt := "nil", "nil"
			if want != nil {
				wantPkt = want.pkt.String()
			}
			if owner != nil {
				gotPkt = owner.pkt.String()
			}
			t.Fatalf("channel %d: owned by %s, want %s", key, gotPkt, wantPkt)
		}
	}
}

// checkWaitTable is the old per-cycle request sort, kept as the wait
// table's oracle: collect every active worm whose header has neither
// arrived nor been granted an output, sort by router, then input policy,
// then packet ID, and demand that walking the table's parts in order visits
// exactly that sequence — no waiter stranded outside the table, no entry
// leaked for a worm that stopped waiting.
func checkWaitTable(t *testing.T, n *Network, active []*worm) {
	t.Helper()
	var want []*worm
	for _, w := range active {
		if !w.arrived && w.outDir == noDirection {
			want = append(want, w)
		}
	}
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].headRouter != want[j].headRouter {
			return want[i].headRouter < want[j].headRouter
		}
		return servedBefore(n.input, want[i], want[j])
	})
	var got []*worm
	for it := n.wait.Walk(); it.Next(); {
		got = append(got, it.Waiter())
	}
	if len(got) != len(want) {
		t.Fatalf("cycle %d: wait table holds %d headers, %d are waiting", n.core.Cycle, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cycle %d: wait table visit %d is %v at router %d, the request sort puts %v at router %d there",
				n.core.Cycle, i, got[i].pkt, got[i].headRouter, want[i].pkt, want[i].headRouter)
		}
		if !got[i].wait.Listed() {
			t.Fatalf("cycle %d: %v is in the table but its link says unlisted", n.core.Cycle, got[i].pkt)
		}
	}
}

// lostWake is the oracle for everything that sleeps: between two
// steps, whoever is not on a list that the next step looks at must really
// have nothing to do. A lost wake would otherwise show only as a watchdog
// deadlock thousands of cycles later.
//
//	(a) No granted worm's target buffer is free: it would have been woken.
//	(b) No waiter the wait table does not have due (engine.WaitTable.Due)
//	    would be granted if offered: a waiter that would be is new at its
//	    router, or its router has released one of its outputs since its last
//	    offer. So every waiter not due has been offered at its router — its
//	    candidates are computed and its routing delay has run out — and
//	    every candidate output is held or broken.
//	(c) Every arrived worm is on the draining list, fully injected, or asleep
//	    on the sleepers' timer — never both, never twice — due the cycle its
//	    source sends its last flit: the cycle arbitrate marked it arrived plus
//	    the flits then unsent. The draining list and the timer hold nothing
//	    else, and every per-cycle list is empty.
//	(d) Every node with a queued message and a free injection buffer is on
//	    the injection worklist.
//	(e) A worm on the free list is reachable from nowhere else: not the
//	    active list, outOwner, the wait table, the draining list or — by (c)
//	    — the sleepers' timer.
//	(f) Under recovery, every active worm that has not arrived has one live
//	    stall entry — naming it and its packet — due no later than the cycle
//	    its header will have stood still for StallCycles, and not overdue.
func lostWake(n *Network, active []*worm) error {
	cycle := n.core.Cycle
	draining := make(map[*worm]int)
	asleep := make(map[*worm]int)
	stallAt := make(map[*worm][]int64)
	for _, w := range n.draining {
		draining[w]++
	}
	var err error
	n.sleepers.Each(func(at int64, w *worm) {
		asleep[w]++
		if at != w.wakeAt || at < cycle {
			err = fmt.Errorf("cycle %d: the timer holds %v due at %d, the worm says %d", cycle, w.pkt, at, w.wakeAt)
		}
	})
	if err != nil {
		return err
	}
	n.stalls.Each(func(at int64, e stall) {
		if e.w.pkt != nil && e.w.pkt.ID == e.id && !e.w.arrived {
			stallAt[e.w] = append(stallAt[e.w], at)
		}
	})
	if len(n.ready)+len(n.woken)+len(n.finished)+len(n.vacated) != 0 || n.moved {
		return fmt.Errorf("cycle %d: per-cycle state carried across steps: %d ready, %d woken, %d finished, %d vacated, moved %v",
			cycle, len(n.ready), len(n.woken), len(n.finished), len(n.vacated), n.moved)
	}
	live := make(map[*worm]bool)
	for _, w := range active {
		live[w] = true
		switch {
		case w.arrived:
			if draining[w]+asleep[w] != 1 {
				return fmt.Errorf("cycle %d: %v has arrived and is on the draining list %d times and on the timer %d times",
					cycle, w.pkt, draining[w], asleep[w])
			}
			if draining[w] == 1 && (w.wakeAt != 0 || w.sent != w.pkt.Length) {
				return fmt.Errorf("cycle %d: %v is on the draining list with %d of %d flits sent (wake at %d)",
					cycle, w.pkt, w.sent, w.pkt.Length, w.wakeAt)
			}
			if asleep[w] == 1 {
				marked := w.headerArrival + max(1, n.routingDelay)
				if want := marked + int64(w.pkt.Length-w.sent); w.wakeAt != want || w.wakeAt < cycle {
					return fmt.Errorf("cycle %d: %v arrived in cycle %d with %d of %d flits sent and sleeps until %d, want %d",
						cycle, w.pkt, marked, w.sent, w.pkt.Length, w.wakeAt, want)
				}
			}
			delete(draining, w)
			delete(asleep, w)
		case w.outDir != noDirection:
			next, _ := n.core.Grid.Neighbor(w.headRouter, w.outDir)
			if want := n.bufID(next, int(w.outDir)); w.target != want {
				return fmt.Errorf("cycle %d: %v granted %v at router %d targets buffer %d, want %d",
					cycle, w.pkt, w.outDir, w.headRouter, w.target, want)
			}
			if !n.occupied[w.target] {
				return fmt.Errorf("cycle %d: lost wake: %v holds output %v of router %d, its target buffer is free, and it did not move",
					cycle, w.pkt, w.outDir, w.headRouter)
			}
		case !n.wait.Due(&w.wait):
			r := w.headRouter
			if r == w.pkt.Dst || !w.candsValid || cycle-w.headerArrival < n.routingDelay {
				return fmt.Errorf("cycle %d: lost wake: %v waits at router %d, not due, without having been offered (dst %d, cands valid %v, arrived there at %d)",
					cycle, w.pkt, r, w.pkt.Dst, w.candsValid, w.headerArrival)
			}
			for _, dd := range w.cands {
				if k := int(r)*n.dims2 + int(dd); n.outOwner[k] == nil && !n.faulted[k] {
					return fmt.Errorf("cycle %d: lost wake: %v waits at router %d, not due, though its candidate output %v is free",
						cycle, w.pkt, r, dd)
				}
			}
		}
	}
	for w := range draining {
		return fmt.Errorf("cycle %d: draining list holds %v, which is not an arrived active worm", cycle, w.pkt)
	}
	for w := range asleep {
		return fmt.Errorf("cycle %d: a timer holds %v, which is not an arrived active worm", cycle, w.pkt)
	}
	if rec := n.core.Recovery; rec.Enabled {
		for _, w := range active {
			if w.arrived {
				continue
			}
			at := stallAt[w]
			if due := w.headerArrival + rec.StallCycles; len(at) != 1 || at[0] > due || at[0] < cycle {
				return fmt.Errorf("cycle %d: lost timeout: %v, whose header times out in cycle %d, has live stall entries due %v, want one due by then",
					cycle, w.pkt, due, at)
			}
		}
	}
	for node := 0; node < n.topo.Nodes(); node++ {
		id := topology.NodeID(node)
		if n.core.QueueLen(id) > 0 && !n.occupied[n.bufID(id, n.dims2)] && !n.core.OnWorklist(id) {
			return fmt.Errorf("cycle %d: lost wake: node %d has %d queued messages and a free injection buffer but is off the worklist",
				cycle, node, n.core.QueueLen(id))
		}
	}
	free := make(map[*worm]bool)
	for _, w := range n.free {
		if free[w] || live[w] || w.wait.Listed() || w.pkt != nil {
			return fmt.Errorf("cycle %d: the free list holds a worm that is listed twice, active, waiting or still has its packet", cycle)
		}
		free[w] = true
	}
	for key, w := range n.outOwner {
		if free[w] {
			return fmt.Errorf("cycle %d: channel %d is owned by a recycled worm", cycle, key)
		}
	}
	return nil
}

func TestSimulatorInvariantsUnderRandomTraffic(t *testing.T) {
	algs := []func() routing.Algorithm{
		func() routing.Algorithm { return routing.XY(topology.NewMesh2D(4, 4)) },
		func() routing.Algorithm { return routing.WestFirst(topology.NewMesh2D(4, 4)) },
		func() routing.Algorithm { return routing.NegativeFirst(topology.NewMesh2D(4, 4)) },
		func() routing.Algorithm { return routing.PCube(topology.NewHypercube(4)) },
		func() routing.Algorithm { return routing.NonminimalPCube(topology.NewHypercube(4)) },
		func() routing.Algorithm { return routing.NegativeFirstTorus(topology.NewKaryNCube(4, 2)) },
		func() routing.Algorithm { return routing.WestFirstWrap(topology.NewKaryNCube(4, 2)) },
	}
	for _, mk := range algs {
		alg := mk()
		net := New(Config{Routing: alg, Seed: 5})
		topo := alg.Topology()
		rng := rand.New(rand.NewSource(6))
		for c := 0; c < 3000; c++ {
			if c%2 == 0 {
				src := topology.NodeID(rng.Intn(topo.Nodes()))
				dst := topology.NodeID(rng.Intn(topo.Nodes()))
				if src != dst {
					net.Enqueue(src, dst, 1+rng.Intn(30))
				}
			}
			if err := net.Step(); err != nil {
				t.Fatalf("%s: %v", alg.Name(), err)
			}
			checkInvariants(t, net)
		}
		// Drain and re-check emptiness.
		for i := 0; i < 100000 && net.InFlight() > 0; i++ {
			if err := net.Step(); err != nil {
				t.Fatalf("%s drain: %v", alg.Name(), err)
			}
			checkInvariants(t, net)
		}
		if net.InFlight() != 0 {
			t.Fatalf("%s: network did not drain", alg.Name())
		}
		for buf, occ := range net.occupied {
			if occ {
				t.Fatalf("%s: buffer %d still occupied after drain", alg.Name(), buf)
			}
		}
		for key, owner := range net.outOwner {
			if owner != nil {
				t.Fatalf("%s: channel %d still owned after drain", alg.Name(), key)
			}
		}
	}
}

func TestSingleFlitPackets(t *testing.T) {
	// One-flit packets (header == tail) exercise every release edge case.
	mesh := topology.NewMesh2D(4, 4)
	net := New(Config{Routing: routing.WestFirst(mesh), Seed: 8})
	want := int64(0)
	for s := topology.NodeID(0); s < 16; s++ {
		for d := topology.NodeID(0); d < 16; d++ {
			if s != d {
				net.Enqueue(s, d, 1)
				want++
			}
		}
	}
	for i := 0; i < 50000 && net.InFlight() > 0; i++ {
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, net)
	}
	if net.PacketsDelivered() != want {
		t.Errorf("delivered %d, want %d", net.PacketsDelivered(), want)
	}
}
