package network

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

func newMeshNet(t *testing.T, m, n int, alg string) *Network {
	t.Helper()
	mesh := topology.NewMesh2D(m, n)
	a, err := routing.New(alg, mesh)
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{Routing: a})
}

// run steps the network until quiet (nothing in flight) or the cycle
// limit, failing the test on watchdog deadlock.
func run(t *testing.T, n *Network, limit int64) {
	t.Helper()
	for i := int64(0); i < limit; i++ {
		if err := n.Step(); err != nil {
			t.Fatalf("unexpected deadlock: %v", err)
		}
		if n.InFlight() == 0 {
			return
		}
	}
	t.Fatalf("network not quiet after %d cycles (%d in flight)", limit, n.InFlight())
}

// TestCloseReturnsToSerial checks that Close, a no-op kept for callers
// written against an interface with Close, may be called twice and leaves a
// network that steps on serially and delivers on the cycle an unclosed one
// does.
func TestCloseReturnsToSerial(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	deliver := func(close bool) int64 {
		n := New(Config{Routing: mustAlg(t, "west-first", mesh)})
		if close {
			n.Close()
			n.Close()
		}
		p := n.Enqueue(0, 15, 4)
		run(t, n, 200)
		return p.Arrived
	}
	closed, open := deliver(true), deliver(false)
	if closed < 0 || closed != open {
		t.Errorf("closed network delivered in cycle %d, an unclosed one in cycle %d", closed, open)
	}
}

func TestSinglePacketZeroLoadLatency(t *testing.T) {
	// Classic wormhole zero-load latency: distance + length - 1 cycles.
	cases := []struct {
		src, dst topology.Coord
		length   int
	}{
		{topology.Coord{0, 0}, topology.Coord{3, 0}, 1},
		{topology.Coord{0, 0}, topology.Coord{3, 0}, 10},
		{topology.Coord{0, 0}, topology.Coord{3, 3}, 10},
		{topology.Coord{0, 0}, topology.Coord{7, 7}, 200},
		{topology.Coord{5, 2}, topology.Coord{5, 3}, 200},
	}
	for _, c := range cases {
		net := newMeshNet(t, 8, 8, "xy")
		mesh := net.Topology()
		p := net.Enqueue(mesh.ID(c.src), mesh.ID(c.dst), c.length)
		run(t, net, 10000)
		dist := mesh.Distance(mesh.ID(c.src), mesh.ID(c.dst))
		want := int64(dist + c.length - 1)
		if p.Latency() != want {
			t.Errorf("%v->%v len=%d: latency %d cycles, want %d", c.src, c.dst, c.length, p.Latency(), want)
		}
		if p.Hops != dist {
			t.Errorf("%v->%v: hops = %d, want %d", c.src, c.dst, p.Hops, dist)
		}
		if p.Injected != 0 {
			t.Errorf("Injected = %d, want 0", p.Injected)
		}
	}
}

func TestFlitConservation(t *testing.T) {
	net := newMeshNet(t, 4, 4, "west-first")
	mesh := net.Topology()
	total := 0
	for i := 0; i < 20; i++ {
		src := topology.NodeID(i % 16)
		dst := topology.NodeID((i*7 + 3) % 16)
		if src == dst {
			continue
		}
		length := 5 + i
		net.Enqueue(src, dst, length)
		total += length
	}
	_ = mesh
	run(t, net, 50000)
	if got := net.FlitsConsumed(); got != int64(total) {
		t.Errorf("FlitsConsumed = %d, want %d", got, total)
	}
	if got := len(net.TakeDelivered()); got == 0 {
		t.Error("TakeDelivered returned nothing")
	}
	if got := net.TakeDelivered(); got != nil {
		t.Error("TakeDelivered did not reset")
	}
}

func TestPipelining(t *testing.T) {
	// A single worm on an empty path advances one flit per cycle: total
	// time = distance + length - 1, exactly — no stalls.
	net := newMeshNet(t, 8, 8, "xy")
	mesh := net.Topology()
	p := net.Enqueue(mesh.ID(topology.Coord{0, 0}), mesh.ID(topology.Coord{7, 0}), 50)
	run(t, net, 1000)
	if want := int64(7 + 50 - 1); p.Latency() != want {
		t.Errorf("latency = %d, want %d (perfect pipelining)", p.Latency(), want)
	}
}

func TestChannelHeldUntilTail(t *testing.T) {
	// Packet A (long) and packet B (short) need the same channel in the
	// same direction. B must wait for A's tail to pass, so B's latency
	// reflects the serialization.
	net := newMeshNet(t, 8, 2, "xy")
	mesh := net.Topology()
	a := net.Enqueue(mesh.ID(topology.Coord{0, 0}), mesh.ID(topology.Coord{7, 0}), 100)
	b := net.Enqueue(mesh.ID(topology.Coord{0, 0}), mesh.ID(topology.Coord{7, 0}), 10)
	run(t, net, 10000)
	if a.Arrived >= b.Arrived {
		t.Errorf("A (first) arrived at %d, B at %d; want A first", a.Arrived, b.Arrived)
	}
	// B cannot even inject until A's tail leaves the injection buffer
	// (cycle ~100), then follows the pipeline.
	if b.Injected < 99 {
		t.Errorf("B injected at %d, want >= 99 (after A's tail)", b.Injected)
	}
}

func TestFCFSArbitration(t *testing.T) {
	// Two packets from different nodes contend for the same output
	// channel; the one whose header arrived at the router first wins.
	net := newMeshNet(t, 8, 8, "xy")
	mesh := net.Topology()
	// Both route east along row 0 and collide at (2,0).
	early := net.Enqueue(mesh.ID(topology.Coord{1, 0}), mesh.ID(topology.Coord{7, 0}), 50)
	if err := net.Step(); err != nil {
		t.Fatal(err)
	}
	if err := net.Step(); err != nil {
		t.Fatal(err)
	}
	// Early's header is now at (2,0) or beyond; inject a competitor at (2,0).
	late := net.Enqueue(mesh.ID(topology.Coord{2, 0}), mesh.ID(topology.Coord{7, 0}), 50)
	run(t, net, 10000)
	if early.Arrived >= late.Arrived {
		t.Errorf("early arrived %d, late arrived %d; FCFS should favor early", early.Arrived, late.Arrived)
	}
}

func TestBlockedPacketWaits(t *testing.T) {
	// Wormhole blocking: a worm whose header cannot acquire a channel
	// waits in place until the holder's tail flit releases it.
	net := newMeshNet(t, 4, 4, "xy")
	mesh := net.Topology()
	// The short packet at (1,1) grabs channel (1,1)->(2,1) immediately;
	// the long worm from (0,1) reaches (1,1) one cycle later and must
	// wait for the short packet's tail, not merely its header.
	long := net.Enqueue(mesh.ID(topology.Coord{0, 1}), mesh.ID(topology.Coord{3, 1}), 200)
	short := net.Enqueue(mesh.ID(topology.Coord{1, 1}), mesh.ID(topology.Coord{3, 1}), 10)
	run(t, net, 10000)
	if short.Arrived >= long.Arrived {
		t.Fatalf("short %d should finish before long %d", short.Arrived, long.Arrived)
	}
	// Unblocked, the long worm would take 3 + 200 - 1 = 202 cycles; the
	// channel hold delays it by roughly the short packet's length.
	if long.Latency() < 202+5 {
		t.Errorf("long latency %d; want >= 207 (delayed by the short worm's tail)", long.Latency())
	}
}

func TestAdaptiveAvoidsBlockedChannel(t *testing.T) {
	// The same scenario with west-first: the cross packet at (1,1) going
	// to (3,1) has only east productive — still blocked. But a packet
	// going to (3,2) can route around via north. Verify it arrives long
	// before the 200-flit worm drains.
	net := newMeshNet(t, 4, 4, "west-first")
	mesh := net.Topology()
	long := net.Enqueue(mesh.ID(topology.Coord{0, 1}), mesh.ID(topology.Coord{3, 1}), 200)
	// Give the long worm time to occupy row 1.
	for i := 0; i < 6; i++ {
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}
	around := net.Enqueue(mesh.ID(topology.Coord{1, 1}), mesh.ID(topology.Coord{3, 2}), 10)
	run(t, net, 10000)
	if around.Arrived >= long.Arrived {
		t.Errorf("adaptive packet did not route around: around=%d long=%d", around.Arrived, long.Arrived)
	}
	if around.Hops != 3 {
		t.Errorf("around took %d hops, want 3 (minimal)", around.Hops)
	}
}

func TestEnqueuePanics(t *testing.T) {
	net := newMeshNet(t, 4, 4, "xy")
	for name, f := range map[string]func(){
		"self":       func() { net.Enqueue(1, 1, 10) },
		"zero-flits": func() { net.Enqueue(0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNewRequiresRouting(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nil routing")
		}
	}()
	New(Config{})
}

func TestQueueAccounting(t *testing.T) {
	net := newMeshNet(t, 4, 4, "xy")
	mesh := net.Topology()
	src := mesh.ID(topology.Coord{0, 0})
	dst := mesh.ID(topology.Coord{3, 3})
	for i := 0; i < 5; i++ {
		net.Enqueue(src, dst, 10)
	}
	if got := net.QueueLen(src); got != 5 {
		t.Errorf("QueueLen = %d, want 5", got)
	}
	if got := net.MaxQueueLen(); got != 5 {
		t.Errorf("MaxQueueLen = %d, want 5", got)
	}
	if got := net.InFlight(); got != 5 {
		t.Errorf("InFlight = %d, want 5", got)
	}
	if err := net.Step(); err != nil {
		t.Fatal(err)
	}
	// One packet started injecting: queue shrinks by one.
	if got := net.QueueLen(src); got != 4 {
		t.Errorf("after step QueueLen = %d, want 4", got)
	}
	run(t, net, 10000)
	if net.PacketsDelivered() != 5 {
		t.Errorf("PacketsDelivered = %d, want 5", net.PacketsDelivered())
	}
	if net.MaxQueueLen() != 0 || net.InFlight() != 0 {
		t.Error("network not empty after drain")
	}
}

func TestManyPacketsAllDelivered(t *testing.T) {
	// Saturating burst: every node sends to every other node once.
	for _, algName := range []string{"xy", "west-first", "north-last", "negative-first"} {
		net := newMeshNet(t, 4, 4, algName)
		want := int64(0)
		for s := topology.NodeID(0); s < 16; s++ {
			for d := topology.NodeID(0); d < 16; d++ {
				if s == d {
					continue
				}
				net.Enqueue(s, d, 4)
				want++
			}
		}
		run(t, net, 200000)
		if net.PacketsDelivered() != want {
			t.Errorf("%s: delivered %d packets, want %d", algName, net.PacketsDelivered(), want)
		}
	}
}

func TestHypercubeBurst(t *testing.T) {
	h := topology.NewHypercube(4)
	for _, mk := range []func(*topology.Hypercube) routing.Algorithm{routing.ECube, routing.PCube} {
		net := New(Config{Routing: mk(h)})
		want := int64(0)
		for s := topology.NodeID(0); s < 16; s++ {
			d := topology.NodeID(uint(s) ^ 0xF)
			net.Enqueue(s, d, 20)
			want++
		}
		run(t, net, 100000)
		if net.PacketsDelivered() != want {
			t.Errorf("%s: delivered %d, want %d", net.Routing().Name(), net.PacketsDelivered(), want)
		}
	}
}

func TestTorusBurstWithWraparounds(t *testing.T) {
	tr := topology.NewKaryNCube(4, 2)
	for _, mk := range []func(*topology.Torus) routing.Algorithm{routing.NegativeFirstTorus, routing.WestFirstWrap, routing.DimensionOrderWrap} {
		net := New(Config{Routing: mk(tr)})
		want := int64(0)
		for s := topology.NodeID(0); int(s) < tr.Nodes(); s++ {
			for d := topology.NodeID(0); int(d) < tr.Nodes(); d++ {
				if s == d {
					continue
				}
				net.Enqueue(s, d, 3)
				want++
			}
		}
		run(t, net, 300000)
		if net.PacketsDelivered() != want {
			t.Errorf("%s: delivered %d, want %d", net.Routing().Name(), net.PacketsDelivered(), want)
		}
	}
}

func TestMicrosecondsConversion(t *testing.T) {
	if Microseconds(20) != 1 {
		t.Errorf("Microseconds(20) = %v, want 1", Microseconds(20))
	}
	if Microseconds(10) != 0.5 {
		t.Errorf("Microseconds(10) = %v, want 0.5", Microseconds(10))
	}
}

func TestPacketStringAndLatencyBeforeArrival(t *testing.T) {
	net := newMeshNet(t, 4, 4, "xy")
	p := net.Enqueue(0, 5, 10)
	if p.Latency() != -1 {
		t.Errorf("Latency before arrival = %d, want -1", p.Latency())
	}
	if p.String() == "" {
		t.Error("empty String()")
	}
}

func TestHexAndOctagonalBursts(t *testing.T) {
	// The simulator is topology-agnostic: the Section 7 future-work
	// topologies run on it unchanged.
	hex := topology.NewHex(4, 4)
	oct := topology.NewOctagonal(4, 4)
	for _, algName := range []string{"negative-first", "dimension-order"} {
		for _, topo := range []topology.Topology{hex, oct} {
			a, err := routing.New(algName, topo)
			if err != nil {
				t.Fatal(err)
			}
			net := New(Config{Routing: a})
			want := int64(0)
			for s := topology.NodeID(0); int(s) < topo.Nodes(); s++ {
				for d := topology.NodeID(0); int(d) < topo.Nodes(); d++ {
					if s != d {
						net.Enqueue(s, d, 4)
						want++
					}
				}
			}
			run(t, net, 300000)
			if net.PacketsDelivered() != want {
				t.Errorf("%s on %s: delivered %d, want %d", a.Name(), topo.Name(), net.PacketsDelivered(), want)
			}
		}
	}
}

func TestRoutingDelaySlowsHeaders(t *testing.T) {
	// With a D-cycle routing decision (D >= 1), every header hop costs D
	// cycles and arrival detection at the destination another D, while
	// the body still pipelines at one flit per cycle: zero-load latency
	// becomes D*(distance+1) + length - 1. D = 0 is the paper's
	// single-cycle router: distance + length - 1.
	mesh := topology.NewMesh2D(8, 8)
	a, err := routing.New("xy", mesh)
	if err != nil {
		t.Fatal(err)
	}
	for _, delay := range []int64{0, 1, 3} {
		net := New(Config{Routing: a, RoutingDelay: delay})
		p := net.Enqueue(mesh.ID(topology.Coord{0, 0}), mesh.ID(topology.Coord{5, 0}), 10)
		run(t, net, 10000)
		want := delay*(5+1) + 10 - 1
		if delay == 0 {
			want = 5 + 10 - 1
		}
		if p.Latency() != want {
			t.Errorf("delay %d: latency %d, want %d", delay, p.Latency(), want)
		}
	}
}

func TestChannelLoadAccounting(t *testing.T) {
	// A single packet's flits all cross each channel of its path exactly
	// once.
	mesh := topology.NewMesh2D(4, 4)
	a, err := routing.New("xy", mesh)
	if err != nil {
		t.Fatal(err)
	}
	net := New(Config{Routing: a})
	src := mesh.ID(topology.Coord{0, 0})
	dst := mesh.ID(topology.Coord{2, 1})
	net.Enqueue(src, dst, 25)
	run(t, net, 1000)
	// xy path: east, east, north.
	wantLoaded := []struct {
		node topology.NodeID
		dir  topology.Direction
	}{
		{mesh.ID(topology.Coord{0, 0}), topology.East},
		{mesh.ID(topology.Coord{1, 0}), topology.East},
		{mesh.ID(topology.Coord{2, 0}), topology.North},
	}
	for _, c := range wantLoaded {
		if got := net.ChannelLoad(c.node, c.dir); got != 25 {
			t.Errorf("channel %d/%v load = %d, want 25", c.node, c.dir, got)
		}
	}
	// Every other channel is untouched; total equals length * hops.
	total := int64(0)
	for node := topology.NodeID(0); int(node) < mesh.Nodes(); node++ {
		for _, d := range topology.Directions(2) {
			total += net.ChannelLoad(node, d)
		}
	}
	if total != 25*3 {
		t.Errorf("total channel load = %d, want 75", total)
	}
}

func TestTransposeLoadConcentratesOnDiagonalCorners(t *testing.T) {
	// The congestion story behind Figure 14: under matrix-transpose with
	// xy routing, the channels adjacent to the diagonal carry far more
	// traffic than the average channel.
	mesh := topology.NewMesh2D(8, 8)
	a, err := routing.New("xy", mesh)
	if err != nil {
		t.Fatal(err)
	}
	net := New(Config{Routing: a})
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			if x == y {
				continue
			}
			net.Enqueue(mesh.ID(topology.Coord{x, y}), mesh.ID(topology.Coord{y, x}), 10)
		}
	}
	run(t, net, 100000)
	var total, count, diag int64
	var diagCount int64
	for node := topology.NodeID(0); int(node) < mesh.Nodes(); node++ {
		c := mesh.Coord(node)
		for _, d := range topology.Directions(2) {
			if _, ok := mesh.Neighbor(node, d); !ok {
				continue
			}
			load := net.ChannelLoad(node, d)
			total += load
			count++
			// Vertical channels leaving diagonal nodes: where every
			// xy transpose route turns.
			if c[0] == c[1] && d.Dim() == 1 {
				diag += load
				diagCount++
			}
		}
	}
	avg := float64(total) / float64(count)
	diagAvg := float64(diag) / float64(diagCount)
	if diagAvg < 2*avg {
		t.Errorf("diagonal turning channels carry %.1f flits vs network average %.1f; expected heavy concentration", diagAvg, avg)
	}
}

func TestOddEvenBurstDelivery(t *testing.T) {
	// Chiu's odd-even model (see internal/routing/turnrule.go) on the
	// real simulator: every pair delivers, no deadlock.
	net := newMeshNet(t, 5, 5, "odd-even")
	want := int64(0)
	for s := topology.NodeID(0); int(s) < 25; s++ {
		for d := topology.NodeID(0); int(d) < 25; d++ {
			if s != d {
				net.Enqueue(s, d, 4)
				want++
			}
		}
	}
	run(t, net, 300000)
	if net.PacketsDelivered() != want {
		t.Errorf("delivered %d, want %d", net.PacketsDelivered(), want)
	}
}

// scribble sets every field reachable in v, exported or not, to a non-zero
// value: true, 7, a fresh pointee, a one-element slice.
func scribble(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scribble(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			scribble(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
		}
	}
}

// TestNewWormResetsRecycledWorm: newWorm sets a recycled worm's fields one
// by one instead of zeroing the whole struct, so a field it forgets would
// carry the previous packet's state into the next. A worm with every field
// scribbled on must come out of newWorm equal to a fresh one, inline buffers
// aside.
func TestNewWormResetsRecycledWorm(t *testing.T) {
	fresh, recycled := newMeshNet(t, 4, 4, "west-first"), newMeshNet(t, 4, 4, "west-first")
	dirty := new(worm)
	scribble(reflect.ValueOf(dirty).Elem())
	recycled.free = append(recycled.free, dirty)
	p := &Packet{ID: 3, Src: 5, Dst: 10, Length: 20, Injected: -1, Arrived: -1}
	a, b := fresh.newWorm(5, p), recycled.newWorm(5, p)
	if b != dirty {
		t.Fatal("newWorm did not take the worm off the free list")
	}
	normal := func(w *worm) worm {
		c := *w
		if c.wait.Owner != w {
			t.Fatalf("wait link owned by %p, want the worm %p", c.wait.Owner, w)
		}
		c.wait.Owner = nil
		c.path = slices.Clone(w.path)
		c.candBuf, c.pathBuf = [8]topology.Direction{}, [16]int32{}
		return c
	}
	if ga, gb := normal(a), normal(b); !reflect.DeepEqual(ga, gb) {
		t.Fatalf("recycled worm after newWorm:\n  %+v\nfresh worm:\n  %+v", gb, ga)
	}
}
