package vcnet

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"turnmodel/internal/topology"
	"turnmodel/internal/vc"
)

// activeWorms lists the worms in the network in slot order.
func activeWorms(n *Network) []*worm {
	var ws []*worm
	for _, w := range n.slots {
		if w != nil {
			ws = append(ws, w)
		}
	}
	return ws
}

// view is w as the sweep holds it between steps: a sleeper's runs, done and
// sent are advanced by the cycles it has streamed through (see slept), the
// way the sweep would have advanced them.
func view(n *Network, w *worm) (runs []run, done, sent int) {
	if w.wakeAt == 0 {
		return w.runs, w.done, w.sent
	}
	k := w.slept(n.core.Cycle)
	r := w.runs[0]
	r.first += k
	r.last += k
	r.moved = n.core.Cycle - 1
	return []run{r}, w.done + k, w.sent + k
}

// positions expands a worm's runs into the per-flit positions the engine
// no longer keeps: pos[k] is the path index of in-network flit k, -1
// for the flits not in the network.
func positions(n *Network, w *worm) []int {
	pos := make([]int, w.pkt.Length)
	for k := range pos {
		pos[k] = -1
	}
	runs, _, _ := view(n, w)
	for _, r := range runs {
		for k := r.first; k <= r.last; k++ {
			pos[k] = r.front - (k - r.first)
		}
	}
	return pos
}

// checkInvariants verifies the engine's structural invariants:
//
//  1. The runs partition the in-network flits done..sent-1, head first,
//     and within a worm flit positions strictly decrease with flit index
//     (no overtaking); every in-network flit's buffer is marked occupied,
//     with no sharing between flits or worms; the slots are in injection
//     order — (injection cycle, source), a source injecting at most one
//     worm per cycle — and every worm knows its own.
//  2. Channel ownership: a worm owns exactly the channels feeding the
//     path positions its tail flit has not yet crossed, plus its pending
//     head allocation.
//  3. sent/done counters stay consistent with the runs.
//  4. The wait table holds exactly the headers waiting for an output, and
//     visits them in the order of the global request sort it replaced
//     (see checkWaitTable).
//  5. No wake was lost and no recycled worm is still referred to (see
//     lostWake).
//  6. The sharing counts are those ownership and arrival give (see
//     checkSharing).
//
// A sleeper is checked as the sweep holds it (see view).
func checkInvariants(t *testing.T, n *Network) {
	t.Helper()
	checkWaitTable(t, n)
	if err := lostWake(n); err != nil {
		t.Fatal(err)
	}
	if err := checkSharing(n); err != nil {
		t.Fatal(err)
	}
	coveredBy := make(map[int32]*worm)
	ownedWant := make(map[int]*worm)
	active := activeWorms(n)
	if len(active) != n.live {
		t.Fatalf("the slots hold %d worms, live counts %d", len(active), n.live)
	}
	for i, w := range active {
		if n.slots[w.slot] != w {
			t.Fatalf("%v does not sit in its slot %d", w.pkt, w.slot)
		}
		if p, q := w.pkt, active[max(i-1, 0)].pkt; i > 0 && (q.Injected > p.Injected || q.Injected == p.Injected && q.Src >= p.Src) {
			t.Fatalf("slots out of injection order: %v after %v", p, q)
		}
		runs, done, sent := view(n, w)
		if done > sent || sent > w.pkt.Length {
			t.Fatalf("%v: done=%d sent=%d", w.pkt, done, sent)
		}
		next, prev := done, len(w.path)
		for i, r := range runs {
			if r.first != next || r.last < r.first {
				t.Fatalf("%v: run %d holds flits %d..%d, want it to start at %d", w.pkt, i, r.first, r.last, next)
			}
			next = r.last + 1
			if i > 0 && r.front >= prev {
				t.Fatalf("%v: run %d at %d overlaps or overtook the run ahead, whose last flit is at %d", w.pkt, i, r.front, prev)
			}
			prev = r.tail()
		}
		if next != sent {
			t.Fatalf("%v: runs end at flit %d, sent=%d", w.pkt, next, sent)
		}
		pos := positions(n, w)
		for k := done; k < sent; k++ {
			p := pos[k]
			if p < 0 || p >= len(w.path) {
				t.Fatalf("%v: flit %d at invalid position %d", w.pkt, k, p)
			}
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
		if sent == w.pkt.Length {
			lo = pos[w.pkt.Length-1] + 1
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

// checkSharing restates the sharing counts from the state between two steps:
// the claims entry of a physical channel carrying more than one virtual
// channel counts the virtual channels owned on it, and that of a node's
// ejection channel (when ejection is limited) the arrived worms there; every
// other entry is 0 and no release waits to be counted. A worm's shared count
// is the number of virtual channels it owns on links where more than one is
// owned.
func checkSharing(n *Network) error {
	cycle := n.core.Cycle
	if len(n.unclaim) != 0 {
		return fmt.Errorf("cycle %d: %d releases left uncounted after the movement phase", cycle, len(n.unclaim))
	}
	want := make([]int32, len(n.claims))
	multi := func(key int) bool { return n.alg.VCs(topology.Direction(key/n.maxVC%n.dims2)) > 1 }
	for key, w := range n.owner {
		if w != nil && multi(key) {
			want[key/n.maxVC]++
		}
	}
	shared := make(map[*worm]int32)
	for key, w := range n.owner {
		if w != nil && multi(key) && want[key/n.maxVC] > 1 {
			shared[w]++
		}
	}
	active := activeWorms(n)
	for _, w := range active {
		if w.arrived && n.ejectBase >= 0 {
			want[int(n.ejectBase)+int(w.pkt.Dst)]++
		}
	}
	for k := range want {
		if n.claims[k] != want[k] {
			return fmt.Errorf("cycle %d: channel %d counts %d claimants, ownership and arrivals give %d", cycle, k, n.claims[k], want[k])
		}
	}
	for _, w := range active {
		if w.shared != shared[w] {
			return fmt.Errorf("cycle %d: %v counts %d shared virtual channels, ownership gives %d", cycle, w.pkt, w.shared, shared[w])
		}
	}
	return nil
}

// checkWaitTable is the old per-cycle request sort, kept as the wait
// table's oracle: every active worm whose header has neither arrived nor
// been granted an output, sorted by router, header arrival cycle and packet
// ID, must be exactly what walking the table's parts in order visits.
func checkWaitTable(t *testing.T, n *Network) {
	t.Helper()
	var want []*worm
	for _, w := range activeWorms(n) {
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
	}
}

// canMove restates the per-flit movement rules of the sweep the runs
// replaced, on the state between two steps — when every bandwidth stamp is
// stale, so only buffers and grants decide: some flit of w can move in the
// next cycle if it sits at the front of an arrived worm (it is consumed),
// is a header granted a channel whose far buffer is free, or is a body flit
// whose next buffer on the path is free; or the next flit can be injected.
func canMove(n *Network, w *worm) bool {
	pos := positions(n, w)
	_, done, sent := view(n, w)
	for k := done; k < sent; k++ {
		p := pos[k]
		switch {
		case p < len(w.path)-1:
			if !n.occupied[w.path[p+1]] {
				return true
			}
		case w.arrived:
			return true
		case k == 0 && w.routed:
			next, _ := n.core.Grid.Neighbor(w.headRouter, w.out.Dir)
			if !n.occupied[n.bufID(next, w.out.Dir, w.out.VC)] {
				return true
			}
		}
	}
	return sent < w.pkt.Length && !n.occupied[w.path[0]]
}

// lostWake is the oracle for what sleeps in this engine — refused
// headers, worms with nothing to move and sources behind an occupied
// injection buffer. Between two steps:
//
//	(b) No waiter the wait table does not have due (engine.WaitTable.Due)
//	    would be granted if offered: a waiter that would be is new at its
//	    router, or its router has released one of its output virtual
//	    channels since its last offer. So every waiter not due has been
//	    offered at its router — its candidates are computed — and every
//	    candidate output virtual channel is held or on a broken link.
//	(d) Every node with a queued message and a free injection buffer is on
//	    the injection worklist.
//	(e) A worm on the free list is reachable from nowhere else: not the
//	    active list, owner or the wait table.
//	(f) Under recovery every worm that has not arrived has exactly one live
//	    stall entry, due by the cycle its header times out.
//	(m) A worm that is neither due for the next movement phase's first
//	    visits nor asleep cannot move (canMove); the movement phase in
//	    progress left nothing behind.
//	(s) Every sleeper streams as the sweep holds it — arrived, one run
//	    from the injection buffer to the destination buffer, a flit still
//	    at the source — is not due, and has exactly one live timer entry,
//	    due at its wakeAt and not before the next cycle; asleep counts the
//	    sleepers. Every reservation names a live sleeper whose path uses
//	    that channel, and every channel a sleeper claims each cycle is
//	    reserved by it, so no two sleepers share a channel.
//
// (The letters (b) to (f) are those of internal/network's oracle, whose (a)
// and (c) are about the worms that sleep there.)
func lostWake(n *Network) error {
	cycle := n.core.Cycle
	live := make(map[*worm]bool)
	active := activeWorms(n)
	if len(n.finished) != 0 || n.moving || n.dozed != 0 {
		return fmt.Errorf("cycle %d: the movement phase left %d worms finished", cycle, len(n.finished))
	}
	if err := lostSleeper(n, active); err != nil {
		return err
	}
	for s := 0; s < 64*len(n.awake); s++ {
		if n.round.has(s) || n.later.has(s) {
			return fmt.Errorf("cycle %d: the movement phase left slot %d due", cycle, s)
		}
		if n.awake.has(s) && (s >= len(n.slots) || n.slots[s] == nil) {
			return fmt.Errorf("cycle %d: empty slot %d is due for a visit", cycle, s)
		}
	}
	for _, w := range active {
		live[w] = true
		if !n.awake.has(w.slot) && w.wakeAt == 0 && canMove(n, w) {
			return fmt.Errorf("cycle %d: lost wake: %v can move but is not due for a visit", cycle, w.pkt)
		}
		if w.arrived || w.routed || n.wait.Due(&w.wait) {
			continue
		}
		r := w.headRouter
		if r == w.pkt.Dst || !w.candsValid {
			return fmt.Errorf("cycle %d: lost wake: %v waits at router %d, not due, without having been offered (dst %d, cands valid %v)",
				cycle, w.pkt, r, w.pkt.Dst, w.candsValid)
		}
		for _, out := range w.cands {
			if !n.faulted[int(r)*n.dims2+int(out.Dir)] && n.owner[n.ownerKey(r, out.Dir, out.VC)] == nil {
				return fmt.Errorf("cycle %d: lost wake: %v waits at router %d, not due, though its candidate output %v is free",
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
	stalls := make(map[*worm]int)
	for _, w := range n.free {
		if free[w] || live[w] || w.wait.Listed() || w.pkt != nil {
			return fmt.Errorf("cycle %d: the free list holds a worm that is listed twice, active, waiting or still has its packet", cycle)
		}
		free[w] = true
	}
	var late error
	n.stalls.Each(func(at int64, e timed) {
		if e.w.pkt == nil || e.w.pkt.ID != e.id || e.w.arrived {
			return
		}
		stalls[e.w]++
		if at > e.w.headerArrival+n.core.Recovery.StallCycles {
			late = fmt.Errorf("cycle %d: %v's stall entry is due at %d, after its header times out", cycle, e.w.pkt, at)
		}
	})
	if late != nil {
		return late
	}
	if n.core.Recovery.Enabled {
		for _, w := range active {
			if !w.arrived && stalls[w] != 1 {
				return fmt.Errorf("cycle %d: lost timeout: %v has %d live stall entries", cycle, w.pkt, stalls[w])
			}
		}
	}
	for key, w := range n.owner {
		if free[w] {
			return fmt.Errorf("cycle %d: channel %d is owned by a recycled worm", cycle, key)
		}
	}
	return nil
}

// lostSleeper is the lost-wake oracle's clause (s).
func lostSleeper(n *Network, active []*worm) error {
	cycle := n.core.Cycle
	entries := make(map[*worm]int)
	n.sleepers.Each(func(at int64, e timed) {
		if e.w.pkt != nil && e.w.pkt.ID == e.id && e.w.wakeAt == at {
			entries[e.w]++
		}
	})
	claimer := make(map[int32]*worm)
	asleep := 0
	for _, w := range active {
		if w.wakeAt == 0 {
			continue
		}
		asleep++
		runs, _, sent := view(n, w)
		if !w.arrived || len(runs) != 1 || runs[0].front != len(w.path)-1 || runs[0].tail() != 0 || sent >= w.pkt.Length {
			return fmt.Errorf("cycle %d: %v sleeps but does not stream (arrived %v, runs %v of a %d-buffer path, sent %d)",
				cycle, w.pkt, w.arrived, runs, len(w.path), sent)
		}
		if n.awake.has(w.slot) {
			return fmt.Errorf("cycle %d: sleeper %v is due for a visit", cycle, w.pkt)
		}
		if entries[w] != 1 || w.wakeAt < cycle {
			return fmt.Errorf("cycle %d: lost timer: sleeper %v has %d live timer entries and is due at %d",
				cycle, w.pkt, entries[w], w.wakeAt)
		}
		for _, k := range claims(n, w) {
			if o := claimer[k]; o != nil {
				return fmt.Errorf("cycle %d: sleepers %v and %v both claim channel %d each cycle", cycle, o.pkt, w.pkt, k)
			}
			claimer[k] = w
			if n.resv[k] != w || n.physUsed[k] != reserved {
				return fmt.Errorf("cycle %d: lost reservation: sleeper %v claims channel %d each cycle, which reads %d reserved by %v",
					cycle, w.pkt, k, n.physUsed[k], n.resv[k])
			}
		}
	}
	if asleep != n.asleep {
		return fmt.Errorf("cycle %d: %d worms sleep, asleep counts %d", cycle, asleep, n.asleep)
	}
	for k, w := range n.resv {
		if (w != nil) != (n.physUsed[k] == reserved) {
			return fmt.Errorf("cycle %d: channel %d reads %d and is reserved by %v", cycle, k, n.physUsed[k], w)
		}
		if w != nil && claimer[int32(k)] != w {
			return fmt.Errorf("cycle %d: channel %d is reserved by a worm that is not a sleeper claiming it", cycle, k)
		}
	}
	return nil
}

// claims restates which channels a worm streaming into its destination
// claims each cycle: the ejection channel, unless ejection is uncapped, and
// the physical channel into every buffer of its path that carries more than
// one virtual channel.
func claims(n *Network, w *worm) []int32 {
	var ks []int32
	if n.ejectBase >= 0 {
		ks = append(ks, n.ejectBase+int32(w.headRouter))
	}
	for j := 1; j < len(w.path); j++ {
		to := w.path[j]
		d, _ := n.bufPort(to)
		if from, ok := n.topo.Neighbor(n.bufRouter(to), d.Opposite()); ok && n.alg.VCs(d) > 1 {
			ks = append(ks, int32(int(from)*n.dims2+int(d)))
		}
	}
	return ks
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
