// Allocation gates for the hot step path, enforced by plain `go test`
// so a regression fails CI without anyone remembering to pass -bench.
// BenchmarkNetworkStep reports the same property as allocs/op; these tests
// pin it with testing.AllocsPerRun over the identical wedged steady state.
package turnmodel_test

import (
	"runtime"
	"testing"

	"turnmodel"
)

// wedgedNetwork drives a 16x16 xy mesh into a permanently blocked steady
// state: every eastbound channel out of column x=8 is faulted, westbound
// traffic piles against the break, and the watchdog is disabled. Every
// subsequent Step does identical work — arbitration over the same blocked
// headers — which makes it the reference workload for both the step
// benchmarks and the allocation gates.
func wedgedNetwork(tb testing.TB, probe turnmodel.Probe, ftroute turnmodel.FaultRoutingPolicy) *turnmodel.Network {
	tb.Helper()
	mesh := turnmodel.NewMesh2D(16, 16)
	alg, err := turnmodel.NewRouting("xy", mesh)
	if err != nil {
		tb.Fatal(err)
	}
	faults := make([]turnmodel.Channel, 0, 16)
	for y := 0; y < 16; y++ {
		faults = append(faults, turnmodel.Channel{
			From: mesh.ID(turnmodel.Coord{8, y}), Dir: turnmodel.East,
		})
	}
	net := turnmodel.NewNetwork(turnmodel.NetworkConfig{
		Routing: alg, Seed: 1, WatchdogCycles: -1,
		Faults: faults, Probe: probe, FaultRouting: ftroute,
	})
	for y := 0; y < 16; y++ {
		for x := 0; x < 4; x++ {
			net.Enqueue(mesh.ID(turnmodel.Coord{x, y}), mesh.ID(turnmodel.Coord{15, y}), 10)
		}
	}
	// Let the worms advance until every header is wedged.
	for c := 0; c < 2000; c++ {
		if err := net.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return net
}

// movingNetwork is the allocation gate's moving-traffic workload: every
// node (x, y) of an 8x8 west-first mesh sends one 600-flit message to
// ((x+4) mod 8, (y+3) mod 8) at cycle 0. All worms are injected in the first cycle and
// none finishes for hundreds of cycles, so the steps right after it create
// no worm and deliver no packet — but they are when the headers travel:
// a few hundred hops in under twenty cycles, each one a header leaving the
// wait table on a grant and entering it again at the next router, with
// blocked headers piling up behind the long bodies. Routes are 7 hops,
// inside a worm's inline path buffer. It returns the packets so the
// caller can check that headers really moved.
func movingNetwork(tb testing.TB, probe turnmodel.Probe) (*turnmodel.Network, []*turnmodel.Packet) {
	tb.Helper()
	mesh := turnmodel.NewMesh2D(8, 8)
	alg, err := turnmodel.NewRouting("west-first", mesh)
	if err != nil {
		tb.Fatal(err)
	}
	net := turnmodel.NewNetwork(turnmodel.NetworkConfig{Routing: alg, Seed: 1, Probe: probe})
	var pkts []*turnmodel.Packet
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			dst := mesh.ID(turnmodel.Coord{(x + 4) % 8, (y + 3) % 8})
			pkts = append(pkts, net.Enqueue(mesh.ID(turnmodel.Coord{x, y}), dst, 600))
		}
	}
	return net, pkts
}

// movingVCNetwork is movingNetwork on the virtual-channel engine: the same
// 600-flit messages from every node (x, y) of an 8x8 mesh to
// ((x+4) mod 8, (y+3) mod 8), routed double-y, whose y links carry two
// virtual channels, so every flit crossing one claims its bandwidth.
func movingVCNetwork(tb testing.TB, probe turnmodel.Probe) (*turnmodel.VCNetwork, []*turnmodel.Packet) {
	tb.Helper()
	mesh := turnmodel.NewMesh2D(8, 8)
	alg, err := turnmodel.NewVCRouting("double-y", mesh)
	if err != nil {
		tb.Fatal(err)
	}
	net := turnmodel.NewVCNetwork(turnmodel.VCNetworkConfig{Routing: alg, Probe: probe})
	var pkts []*turnmodel.Packet
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			dst := mesh.ID(turnmodel.Coord{(x + 4) % 8, (y + 3) % 8})
			pkts = append(pkts, net.Enqueue(mesh.ID(turnmodel.Coord{x, y}), dst, 600))
		}
	}
	return net, pkts
}

// wakingWave enqueues the allocation gate's wake workload on an 8x8
// west-first mesh: four short messages (3 to 7 flits) from every node
// (x, y) to ((x+4) mod 8, (y+3) mod 8). Short worms queued four deep keep
// every wake edge firing for dozens of cycles: tails cross channels and
// wake the headers refused them, vacated buffers wake the worms stalled on
// them, every injection buffer that empties wakes its source for the next
// message, and worms retire and are recycled into the next injections.
func wakingWave(net *turnmodel.Network, mesh *turnmodel.Mesh) []*turnmodel.Packet {
	var pkts []*turnmodel.Packet
	for k := 0; k < 4; k++ {
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				dst := mesh.ID(turnmodel.Coord{(x + 4) % 8, (y + 3) % 8})
				pkts = append(pkts, net.Enqueue(mesh.ID(turnmodel.Coord{x, y}), dst, 3+(x+y+k)%5))
			}
		}
	}
	return pkts
}

// drainingWave enqueues one 200-flit message — the paper's long message —
// from every node (x, y) of a west-first mesh to its row neighbour (x^1, y).
// Every node is then the destination of exactly one worm whose header
// arrives after a single hop with 198 flits still at the source, so the mesh
// is full of arrived worms whose drain moves nothing but counters: each
// sleeps on a timer for 198 cycles, wakes, shifts its tail for two
// and retires, and its source injects the next message of its queue. It is
// the workload of the draining allocation gate and of
// BenchmarkNetworkStepDraining.
func drainingWave(net *turnmodel.Network, mesh *turnmodel.Mesh) {
	// Node (x, y) is number x + y*Size(0), and the row size is even.
	for id := 0; id < mesh.Nodes(); id++ {
		net.Enqueue(turnmodel.NodeID(id), turnmodel.NodeID(id^1), 200)
	}
}

// drainingVCWave is drainingWave on the virtual-channel engine's double-y
// mesh, each node sending to its column neighbour (x, y^1) instead: every
// worm crosses one y link, whose two virtual channels make its bandwidth
// something to arbitrate, so each sleeps reserving that link as well as its
// ejection channel. It is the workload of the vcnet sleeping allocation gate
// and of BenchmarkVCNetStepDraining.
func drainingVCWave(net *turnmodel.VCNetwork, mesh *turnmodel.Mesh) {
	for id := 0; id < mesh.Nodes(); id++ {
		c := mesh.Coord(turnmodel.NodeID(id))
		c[1] ^= 1
		net.Enqueue(turnmodel.NodeID(id), mesh.ID(c), 200)
	}
}

// TestStepZeroAllocs gates the step paths at zero heap allocations per
// cycle: the observability layer must cost nothing when unused, and nothing
// either with a collector attached to a wedged or a moving network (the
// probe cases), fault-aware routing must stay allocation-free once its candidate
// caches are warm, a header entering and leaving the wait
// table must cost no allocation (the moving cases), and neither must a wake,
// a retirement or the injection that recycles the retired worm (the waking
// cases), and neither must putting an arrived worm to sleep on a timer, counting its flits while it sleeps, or waking it (the draining
// cases), and neither must moving the virtual-channel engine's worms (the
// vcnet moving cases) or putting them to sleep with their reservations,
// counting them and waking them (the vcnet sleeping cases).
func TestStepZeroAllocs(t *testing.T) {
	t.Run("vcnet-no-probe-sleeping", func(t *testing.T) {
		mesh := turnmodel.NewMesh2D(8, 8)
		alg, err := turnmodel.NewVCRouting("double-y", mesh)
		if err != nil {
			t.Fatal(err)
		}
		net := turnmodel.NewVCNetwork(turnmodel.VCNetworkConfig{Routing: alg})
		var stepErr error
		step := func() {
			if err := net.Step(); err != nil {
				stepErr = err
			}
		}
		// As in the draining cases: two waves run to completion size the
		// worms, slots and timers; the measured steps carry two more on
		// recycled worms — 64 arrivals put to sleep with their
		// reservations, 196 cycles of counted flits, 64 timers popped,
		// tails, retirements and re-injections.
		drainingVCWave(net, mesh)
		drainingVCWave(net, mesh)
		for net.InFlight() > 0 && stepErr == nil {
			step()
		}
		net.TakeDelivered()
		drainingVCWave(net, mesh)
		drainingVCWave(net, mesh)
		done, flits := net.PacketsDelivered(), net.FlitsConsumed()
		allocs := testing.AllocsPerRun(300, step)
		if stepErr != nil {
			t.Fatal(stepErr)
		}
		if n := net.PacketsDelivered() - done; n != 64 {
			t.Fatalf("%d packets delivered in the measured window, want the first wave's 64", n)
		}
		if n := net.FlitsConsumed() - flits; n < 64*250 {
			t.Fatalf("only %d flits consumed in the measured window; the case no longer keeps the mesh full of sleeping worms", n)
		}
		if allocs != 0 {
			t.Errorf("step path allocates %.1f allocs/op, want 0", allocs)
		}
	})
	t.Run("no-probe-cube", func(t *testing.T) {
		// The 8-cube held saturated (saturatedCube in bench_test.go): every
		// step grants, hops, releases and retires, on recycled worms; the
		// delivered list growing back after TakeDelivered is the only
		// allocation left, a handful in all.
		net, _ := saturatedCube(t)
		done := net.PacketsDelivered()
		var stepErr error
		allocs := testing.AllocsPerRun(300, func() {
			if err := net.Step(); err != nil {
				stepErr = err
			}
		})
		if stepErr != nil {
			t.Fatal(stepErr)
		}
		if n := net.PacketsDelivered() - done; n < 300 {
			t.Fatalf("only %d packets delivered in the measured window; the cube is not saturated", n)
		}
		if allocs != 0 {
			t.Errorf("step path allocates %.1f allocs/op, want 0", allocs)
		}
	})
	t.Run("no-probe-draining", func(t *testing.T) {
		mesh := turnmodel.NewMesh2D(8, 8)
		alg, err := turnmodel.NewRouting("west-first", mesh)
		if err != nil {
			t.Fatal(err)
		}
		net := turnmodel.NewNetwork(turnmodel.NetworkConfig{Routing: alg, Seed: 1})
		var stepErr error
		step := func() {
			if err := net.Step(); err != nil {
				stepErr = err
			}
		}
		// Two waves run to completion allocate the worms and grow the
		// lists and the timers to their working size; the measured steps
		// carry two more on recycled worms: 64 arrivals put to sleep, 198
		// cycles of counted flits, 64 wakes, tails, retirements and
		// re-injections, and the second wave's arrivals.
		drainingWave(net, mesh)
		drainingWave(net, mesh)
		for net.InFlight() > 0 && stepErr == nil {
			step()
		}
		net.TakeDelivered()
		drainingWave(net, mesh)
		drainingWave(net, mesh)
		done, flits := net.PacketsDelivered(), net.FlitsConsumed()
		// As in the waking cases, the delivered list growing back after
		// TakeDelivered is the only allocation left, a handful in all.
		allocs := testing.AllocsPerRun(300, step)
		if stepErr != nil {
			t.Fatal(stepErr)
		}
		if n := net.PacketsDelivered() - done; n != 64 {
			t.Fatalf("%d packets delivered in the measured window, want the first wave's 64", n)
		}
		if n := net.FlitsConsumed() - flits; n < 64*250 {
			t.Fatalf("only %d flits consumed in the measured window; the case no longer keeps the mesh full of draining worms", n)
		}
		if allocs != 0 {
			t.Errorf("step path allocates %.1f allocs/op, want 0", allocs)
		}
	})
	t.Run("no-probe-waking", func(t *testing.T) {
		mesh := turnmodel.NewMesh2D(8, 8)
		alg, err := turnmodel.NewRouting("west-first", mesh)
		if err != nil {
			t.Fatal(err)
		}
		net := turnmodel.NewNetwork(turnmodel.NetworkConfig{Routing: alg, Seed: 1})
		var stepErr error
		step := func() {
			if err := net.Step(); err != nil {
				stepErr = err
			}
		}
		// A first wave, run to completion, allocates the worms and grows
		// every list to its working size; the measured steps then carry
		// an identical second wave on recycled worms.
		wakingWave(net, mesh)
		for net.InFlight() > 0 && stepErr == nil {
			step()
		}
		net.TakeDelivered()
		pkts := wakingWave(net, mesh)
		start, done := net.Cycle(), net.PacketsDelivered()
		// The only allocation left is the delivered list growing back
		// after TakeDelivered — under ten in all, which AllocsPerRun's
		// truncated average forgives; one per wake, per retirement or
		// per injection would be several per step.
		allocs := testing.AllocsPerRun(120, step)
		if stepErr != nil {
			t.Fatal(stepErr)
		}
		if n := net.PacketsDelivered() - done; n < 100 {
			t.Fatalf("only %d packets delivered in the measured window; the case no longer exercises retirement", n)
		}
		woken := 0
		for _, p := range pkts {
			if p.Injected > start {
				woken++
			}
		}
		if woken < 100 {
			t.Fatalf("only %d messages were injected by a woken source in the measured window", woken)
		}
		if allocs != 0 {
			t.Errorf("step path allocates %.1f allocs/op, want 0", allocs)
		}
	})
	// The moving cases run once without a probe and once with a collector
	// attached, which is told of every grant's wait.
	for _, pc := range []struct {
		name  string
		probe func() turnmodel.Probe
	}{
		{"no-probe", func() turnmodel.Probe { return nil }},
		{"probe", func() turnmodel.Probe {
			return turnmodel.NewMetricsCollector(turnmodel.NewMesh2D(8, 8), turnmodel.MetricsOptions{})
		}},
	} {
		t.Run(pc.name+"-moving", func(t *testing.T) {
			net, pkts := movingNetwork(t, pc.probe())
			movingAllocs(t, net.Step, net.PacketsDelivered, pkts)
		})
		t.Run("vcnet-"+pc.name+"-moving", func(t *testing.T) {
			net, pkts := movingVCNetwork(t, pc.probe())
			movingAllocs(t, net.Step, net.PacketsDelivered, pkts)
		})
	}
	cases := []struct {
		name    string
		probe   bool
		ftroute turnmodel.FaultRoutingPolicy
	}{
		{"no-probe", false, turnmodel.FaultRoutingPolicy{}},
		{"no-probe-ftroute", false, turnmodel.FaultRoutingPolicy{
			Visibility:    turnmodel.FaultVisibilityKHop,
			MisrouteLimit: 4,
		}},
		{"probe", true, turnmodel.FaultRoutingPolicy{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var probe turnmodel.Probe
			if tc.probe {
				probe = turnmodel.NewMetricsCollector(turnmodel.NewMesh2D(16, 16), turnmodel.MetricsOptions{})
			}
			net := wedgedNetwork(t, probe, tc.ftroute)
			var stepErr error
			allocs := testing.AllocsPerRun(200, func() {
				if err := net.Step(); err != nil {
					stepErr = err
				}
			})
			if stepErr != nil {
				t.Fatal(stepErr)
			}
			if allocs != 0 {
				t.Errorf("%s step path allocates %.1f allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}

// movingAllocs is TestStepZeroAllocs' moving case: the first step injects
// (and so allocates) the worms; the measured ones only move them — headers
// hopping into and out of the wait table, worms woken by their grants and
// advancing. AllocsPerRun truncates the average, so the scratch lists and
// the probe's event buffer growing to their working size — a handful of
// allocations in all — passes, while anything per hop, per waiter or per
// event would not.
func movingAllocs(t *testing.T, step func() error, delivered func() int64, pkts []*turnmodel.Packet) {
	t.Helper()
	hops := func() (n int) {
		for _, p := range pkts {
			n += p.Hops
		}
		return n
	}
	var stepErr error
	measured := func() {
		if err := step(); err != nil {
			stepErr = err
		}
	}
	measured()
	before := hops()
	allocs := testing.AllocsPerRun(18, measured)
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if moved := hops() - before; moved < 100 {
		t.Fatalf("only %d header hops in the measured window; the case no longer exercises enlist/delist", moved)
	}
	if n := delivered(); n != 0 {
		t.Fatalf("%d packets delivered inside the measured window; deliveries allocate by design", n)
	}
	if allocs != 0 {
		t.Errorf("step path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestMessagePathAllocs gates what a message costs in allocations over its
// whole life — generation on the arrival wheel, Enqueue, the source queue,
// injection, retirement and TakeDelivered — at one object per 64 generated
// messages at most, on both engines. Each case runs a saturated simulation
// twice, with measurement windows of two lengths: the longer run's extra
// allocations, over the extra messages it generated (delivered, dropped or
// still in flight when it ends), price the steady state, setup excluded.
// Packets come from chunks of 256 and every list the path uses is reused
// once grown, so the count is well under the gate; one allocation per
// message (a Packet each, say) is 64 times over it.
func TestMessagePathAllocs(t *testing.T) {
	cube := turnmodel.NewHypercube(8)
	pcube, err := turnmodel.NewRouting("p-cube", cube)
	if err != nil {
		t.Fatal(err)
	}
	mesh := turnmodel.NewMesh2D(16, 16)
	doubleY, err := turnmodel.NewVCRouting("double-y", mesh)
	if err != nil {
		t.Fatal(err)
	}
	params := func(pattern turnmodel.TrafficPattern, rate float64, measure int64) turnmodel.SimRunParams {
		return turnmodel.SimRunParams{Pattern: pattern, InjectionRate: rate,
			WarmupCycles: 2000, MeasureCycles: measure, Seed: 1}
	}
	for _, tc := range []struct {
		name string
		run  func(measure int64) turnmodel.SimResult
	}{
		{"cube-reverse-flip", func(measure int64) turnmodel.SimResult {
			return turnmodel.Simulate(turnmodel.SimConfig{Routing: pcube,
				RunParams: params(turnmodel.ReverseFlipTraffic(cube), 0.5, measure)})
		}},
		{"vcnet-mesh-uniform", func(measure int64) turnmodel.SimResult {
			return turnmodel.SimulateVC(turnmodel.VCSimConfig{Routing: doubleY,
				RunParams: params(turnmodel.UniformTraffic(mesh), 0.5, measure)})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			measured := func(measure int64) (allocs uint64, generated int64) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res := tc.run(measure)
				runtime.ReadMemStats(&after)
				if res.Sustainable || res.Deadlocked {
					t.Fatalf("%d-cycle window: sustainable=%v deadlocked=%v, want a saturated run", measure, res.Sustainable, res.Deadlocked)
				}
				// By conservation, what the window generated was delivered,
				// dropped or is still in flight.
				return after.Mallocs - before.Mallocs, res.Delivered + res.Dropped + int64(res.QueueGrowth)
			}
			shortAllocs, shortGen := measured(4000)
			longAllocs, longGen := measured(24000)
			allocs, messages := int64(longAllocs)-int64(shortAllocs), longGen-shortGen
			if messages < 10000 {
				t.Fatalf("only %d more messages in the longer window; the case no longer saturates", messages)
			}
			t.Logf("%d allocations for %d more generated messages", allocs, messages)
			if allocs*64 > messages {
				t.Errorf("%d allocations for %d more generated messages: %.3f per message, want at most 1/64", allocs, messages, float64(allocs)/float64(messages))
			}
		})
	}
}
