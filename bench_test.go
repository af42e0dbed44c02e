// Benchmarks: one per table and figure of the paper's evaluation, plus
// ablations for the design choices DESIGN.md calls out. Each figure bench
// runs a representative point of the figure's sweep per iteration (scaled
// windows); regenerating the full curves is cmd/turnsweep's job.
package turnmodel_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"turnmodel"
)

// benchPoint runs one scaled simulation point.
func benchPoint(b *testing.B, topoKind, algName, patternName string, rate float64) {
	b.Helper()
	var topo turnmodel.Topology
	switch topoKind {
	case "mesh":
		topo = turnmodel.NewMesh2D(16, 16)
	case "cube":
		topo = turnmodel.NewHypercube(8)
	default:
		b.Fatalf("unknown topology kind %q", topoKind)
	}
	alg, err := turnmodel.NewRouting(algName, topo)
	if err != nil {
		b.Fatal(err)
	}
	var pattern turnmodel.TrafficPattern
	switch patternName {
	case "uniform":
		pattern = turnmodel.UniformTraffic(topo)
	case "transpose":
		if m, ok := topo.(*turnmodel.Mesh); ok {
			pattern = turnmodel.TransposeTraffic(m)
		} else {
			pattern = turnmodel.HypercubeTransposeTraffic(topo.(*turnmodel.Hypercube))
		}
	case "reverse-flip":
		pattern = turnmodel.ReverseFlipTraffic(topo.(*turnmodel.Hypercube))
	default:
		b.Fatalf("unknown pattern %q", patternName)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := turnmodel.Simulate(turnmodel.SimConfig{
			Routing: alg,
			RunParams: turnmodel.SimRunParams{
				Pattern:       pattern,
				InjectionRate: rate,
				WarmupCycles:  1500,
				MeasureCycles: 3000,
				Seed:          int64(i),
			},
		})
		if res.Packets == 0 {
			b.Fatal("no packets measured")
		}
	}
}

// BenchmarkFigure13 benchmarks the uniform-traffic 16x16-mesh experiment
// (one sweep point per algorithm per iteration).
func BenchmarkFigure13(b *testing.B) {
	for _, alg := range []string{"xy", "west-first", "north-last", "negative-first"} {
		b.Run(alg, func(b *testing.B) { benchPoint(b, "mesh", alg, "uniform", 0.06) })
	}
}

// BenchmarkFigure14 benchmarks the matrix-transpose 16x16-mesh experiment.
func BenchmarkFigure14(b *testing.B) {
	for _, alg := range []string{"xy", "west-first", "north-last", "negative-first"} {
		b.Run(alg, func(b *testing.B) { benchPoint(b, "mesh", alg, "transpose", 0.06) })
	}
}

// BenchmarkFigure15 benchmarks the matrix-transpose 8-cube experiment.
func BenchmarkFigure15(b *testing.B) {
	for _, alg := range []string{"e-cube", "p-cube", "abonf", "abopl"} {
		b.Run(alg, func(b *testing.B) { benchPoint(b, "cube", alg, "transpose", 0.12) })
	}
}

// BenchmarkFigure16 benchmarks the reverse-flip 8-cube experiment.
func BenchmarkFigure16(b *testing.B) {
	for _, alg := range []string{"e-cube", "p-cube", "abonf", "abopl"} {
		b.Run(alg, func(b *testing.B) { benchPoint(b, "cube", alg, "reverse-flip", 0.12) })
	}
}

// BenchmarkUniformCube benchmarks the uniform 8-cube comparison the text
// discusses alongside Figure 13.
func BenchmarkUniformCube(b *testing.B) {
	for _, alg := range []string{"e-cube", "p-cube"} {
		b.Run(alg, func(b *testing.B) { benchPoint(b, "cube", alg, "uniform", 0.2) })
	}
}

// BenchmarkSweepRunner compares the serial sweep executor against the
// worker-pool executor on a scaled-down figure plan (4 algorithms x 3
// rates = 12 independent jobs). On an N-core machine the parallel case
// approaches N-fold speedup, since the jobs are compute-bound and
// independent.
func BenchmarkSweepRunner(b *testing.B) {
	spec, ok := turnmodel.FigureByID("figure13")
	if !ok {
		b.Fatal("figure13 missing")
	}
	spec.Rates = []float64{0.02, 0.05, 0.08}
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	for _, jobs := range counts {
		b.Run(fmt.Sprintf("jobs-%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := turnmodel.RunSweep(context.Background(), turnmodel.SweepOptions{
					Specs:        []turnmodel.FigureSpec{spec},
					WarmupCycles: 500, MeasureCycles: 1000,
					Seed: 1, Jobs: jobs,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(out.Figures) != 1 || len(out.Figures[0].Series) != 4 {
					b.Fatal("wrong result shape")
				}
			}
		})
	}
}

// BenchmarkSection3Census benchmarks the 16-combination deadlock census of
// Section 3 (the data behind Figures 3-5, 9 and 10).
func BenchmarkSection3Census(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		combos := turnmodel.Census2D(4, 4)
		free := 0
		for _, c := range combos {
			if c.DeadlockFree {
				free++
			}
		}
		if free != 12 {
			b.Fatalf("census found %d, want 12", free)
		}
	}
}

// BenchmarkDependencyGraph benchmarks the exact channel-dependency-graph
// verification used by every deadlock-freedom theorem.
func BenchmarkDependencyGraph(b *testing.B) {
	mesh := turnmodel.NewMesh2D(8, 8)
	alg, err := turnmodel.NewRouting("west-first", mesh)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if cyc := turnmodel.VerifyDeadlockFree(alg); cyc != nil {
			b.Fatal("unexpected cycle")
		}
	}
}

// BenchmarkSection34Adaptiveness benchmarks the Section 3.4 degree-of-
// adaptiveness table (average S_p/S_f across all pairs).
func BenchmarkSection34Adaptiveness(b *testing.B) {
	mesh := turnmodel.NewMesh2D(8, 8)
	for _, name := range []string{"west-first", "north-last", "negative-first"} {
		alg, err := turnmodel.NewRouting(name, mesh)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if r := turnmodel.AverageAdaptivenessRatio(alg); r <= 0.5 {
					b.Fatalf("ratio %v <= 1/2", r)
				}
			}
		})
	}
}

// BenchmarkSection5Table benchmarks the Section 5 p-cube choice analysis
// across every pair of a 10-cube.
func BenchmarkSection5Table(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		total := 0
		for s := uint(0); s < 1024; s += 17 {
			for d := uint(0); d < 1024; d += 13 {
				minimal, extra := turnmodel.PCubeChoices(s, d, 10)
				total += minimal + extra
			}
		}
		if total == 0 {
			b.Fatal("no choices")
		}
	}
}

// BenchmarkAblationOutputPolicy compares the paper's lowest-dimension
// output selection against random and straight-first selection — the
// ablation Section 7 defers to reference [19].
func BenchmarkAblationOutputPolicy(b *testing.B) {
	mesh := turnmodel.NewMesh2D(16, 16)
	alg, err := turnmodel.NewRouting("west-first", mesh)
	if err != nil {
		b.Fatal(err)
	}
	policies := map[string]turnmodel.OutputPolicy{
		"lowest-dimension": turnmodel.LowestDimensionOutput(),
		"random":           turnmodel.RandomOutput(),
		"straight-first":   turnmodel.StraightFirstOutput(),
	}
	for name, pol := range policies {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := turnmodel.Simulate(turnmodel.SimConfig{
					Routing: alg,
					Output:  pol,
					RunParams: turnmodel.SimRunParams{
						Pattern:       turnmodel.TransposeTraffic(mesh),
						InjectionRate: 0.06,
						WarmupCycles:  1500,
						MeasureCycles: 3000,
						Seed:          int64(i),
					},
				})
				b.ReportMetric(res.AvgLatencyUs, "latency-us")
			}
		})
	}
}

// BenchmarkAblationInputPolicy compares local FCFS input selection with
// oldest-first arbitration.
func BenchmarkAblationInputPolicy(b *testing.B) {
	mesh := turnmodel.NewMesh2D(16, 16)
	alg, err := turnmodel.NewRouting("negative-first", mesh)
	if err != nil {
		b.Fatal(err)
	}
	policies := map[string]turnmodel.InputPolicy{
		"local-fcfs":   turnmodel.LocalFCFSInput(),
		"oldest-first": turnmodel.OldestFirstInput(),
	}
	for name, pol := range policies {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := turnmodel.Simulate(turnmodel.SimConfig{
					Routing: alg,
					Input:   pol,
					RunParams: turnmodel.SimRunParams{
						Pattern:       turnmodel.UniformTraffic(mesh),
						InjectionRate: 0.06,
						WarmupCycles:  1500,
						MeasureCycles: 3000,
						Seed:          int64(i),
					},
				})
				b.ReportMetric(res.AvgLatencyUs, "latency-us")
			}
		})
	}
}

// BenchmarkNetworkStep measures the steady-state cost of one simulator
// cycle with and without an instrumentation probe attached. The network
// is driven into a permanently blocked state (xy packets piled against a
// faulted column, watchdog disabled — see wedgedNetwork in alloc_test.go)
// so every iteration does identical work: none, nothing blocked being
// looked at, with a probe or without. The 0 allocs/op property of these
// cases is enforced by TestStepZeroAllocs on every plain `go test` run;
// the benchmark additionally reports allocs for inspection.
func BenchmarkNetworkStep(b *testing.B) {
	run := func(b *testing.B, probe turnmodel.Probe, ftroute turnmodel.FaultRoutingPolicy) {
		net := wedgedNetwork(b, probe, ftroute)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := net.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("no-probe", func(b *testing.B) { run(b, nil, turnmodel.FaultRoutingPolicy{}) })
	// Same wedged steady state with fault-aware routing armed: candidates
	// are cached and the fault set is static, so each cycle costs one
	// health refresh comparison — also allocation-free.
	b.Run("no-probe-ftroute", func(b *testing.B) {
		run(b, nil, turnmodel.FaultRoutingPolicy{
			Visibility:    turnmodel.FaultVisibilityKHop,
			MisrouteLimit: 4,
		})
	})
	b.Run("probe", func(b *testing.B) {
		mesh := turnmodel.NewMesh2D(16, 16)
		run(b, turnmodel.NewMetricsCollector(mesh, turnmodel.MetricsOptions{}), turnmodel.FaultRoutingPolicy{})
	})
}

// bigWedgedNetwork is wedgedNetwork scaled to a size x size mesh for the
// large-mesh benchmark: eastbound channels out of the middle column are
// faulted and four worms per row pile against the break from just west of
// it, so every row holds the same number of permanently blocked headers.
func bigWedgedNetwork(tb testing.TB, size int) *turnmodel.Network {
	tb.Helper()
	mesh := turnmodel.NewMesh2D(size, size)
	alg, err := turnmodel.NewRouting("xy", mesh)
	if err != nil {
		tb.Fatal(err)
	}
	cut := size / 2
	faults := make([]turnmodel.Channel, 0, size)
	for y := 0; y < size; y++ {
		faults = append(faults, turnmodel.Channel{
			From: mesh.ID(turnmodel.Coord{cut, y}), Dir: turnmodel.East,
		})
	}
	net := turnmodel.NewNetwork(turnmodel.NetworkConfig{
		Routing: alg, Seed: 1, WatchdogCycles: -1,
		Faults: faults,
	})
	// Sources sit just west of the break so the pile-up forms within a few
	// hundred cycles even on a 1000-wide mesh.
	for y := 0; y < size; y++ {
		for x := cut - 44; x < cut-40; x++ {
			net.Enqueue(mesh.ID(turnmodel.Coord{x, y}), mesh.ID(turnmodel.Coord{size - 1, y}), 10)
		}
	}
	for c := 0; c < 200; c++ {
		if err := net.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return net
}

// BenchmarkLargeMeshStep steps one wedged 1000x1000 mesh (4000 blocked
// worms spread evenly over the rows). Nothing blocked is looked at, so the
// step has nothing to do: the benchmark is the "blocked costs O(1)" gate —
// a step must not grow with the worms standing in the network or with the
// million nodes around them.
func BenchmarkLargeMeshStep(b *testing.B) {
	net := bigWedgedNetwork(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// streamingNetwork is the large-mesh benchmark's moving workload: on a
// size x size xy mesh every row's westmost node sends 200-flit messages to
// the row's eastmost node, one after the other, for as long as the
// benchmark runs. Once the pipeline is full each row carries size/200 worms
// nose to tail, every one of which makes a full header-to-tail hop every
// cycle — a grant, a move, a tail crossing and the wake it implies — so a
// cycle is size*size/200 moves.
func streamingNetwork(tb testing.TB, size, steps int) *turnmodel.Network {
	tb.Helper()
	mesh := turnmodel.NewMesh2D(size, size)
	alg, err := turnmodel.NewRouting("xy", mesh)
	if err != nil {
		tb.Fatal(err)
	}
	net := turnmodel.NewNetwork(turnmodel.NetworkConfig{Routing: alg, Seed: 1})
	const length = 200
	// Run until the first worms have retired: from then on every injection
	// recycles a worm whose path buffer already spans the row, and a step
	// allocates nothing.
	fill := size + 2*length + 50
	for y := 0; y < size; y++ {
		src, dst := mesh.ID(turnmodel.Coord{0, y}), mesh.ID(turnmodel.Coord{size - 1, y})
		for k := 0; k <= (fill+steps)/length+1; k++ {
			net.Enqueue(src, dst, length)
		}
	}
	for c := 0; c < fill; c++ {
		if err := net.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return net
}

// BenchmarkLargeMeshStepMoving steps one 1000x1000 mesh with 5000 worms
// streaming along its rows (see streamingNetwork), every one of them moving
// every cycle: the cost of a busy step on a mesh far larger than the
// paper's.
func BenchmarkLargeMeshStepMoving(b *testing.B) {
	net := streamingNetwork(b, 1000, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkStepTraffic measures the raw simulator engine under
// moving traffic: cycles per second on a loaded 16x16 mesh.
func BenchmarkNetworkStepTraffic(b *testing.B) {
	mesh := turnmodel.NewMesh2D(16, 16)
	alg, err := turnmodel.NewRouting("west-first", mesh)
	if err != nil {
		b.Fatal(err)
	}
	net := turnmodel.NewNetwork(turnmodel.NetworkConfig{Routing: alg, Seed: 1})
	rng := rand.New(rand.NewSource(2))
	// Preload a moderate working set.
	for i := 0; i < 400; i++ {
		src := turnmodel.NodeID(rng.Intn(256))
		dst := turnmodel.NodeID(rng.Intn(256))
		if src != dst {
			net.Enqueue(src, dst, 10+rng.Intn(190))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%50 == 0 {
			src := turnmodel.NodeID(rng.Intn(256))
			dst := turnmodel.NodeID(rng.Intn(256))
			if src != dst {
				net.Enqueue(src, dst, 10)
			}
		}
		if err := net.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkStepDraining measures a cycle of a 16x16 mesh kept full of
// arrived 200-flit worms (see drainingWave in alloc_test.go): all 256 nodes
// are consuming a flit per cycle, and all of it is quiet — one flit in at
// the source, one out at the destination, nothing anybody else can see — bar
// the two cycles in two hundred in which a worm's tail moves. The worms sleep
// on a timer through the quiet cycles, so a step costs the handful of
// arrivals, wakes and retirements that fall into it, not the 256
// flits it delivers; BENCH_baseline.json holds it under a ceiling that
// advancing every draining worm every cycle exceeds several times over. Each
// source sends a message every 200 cycles, so a wave enqueued every 200 steps
// keeps every queue one deep (those Enqueues are the allocations reported).
func BenchmarkNetworkStepDraining(b *testing.B) {
	mesh := turnmodel.NewMesh2D(16, 16)
	alg, err := turnmodel.NewRouting("west-first", mesh)
	if err != nil {
		b.Fatal(err)
	}
	net := turnmodel.NewNetwork(turnmodel.NetworkConfig{Routing: alg, Seed: 1})
	drainingWave(net, mesh)
	drainingWave(net, mesh)
	for c := 0; c < 100; c++ {
		if err := net.Step(); err != nil {
			b.Fatal(err)
		}
	}
	flits := net.FlitsConsumed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%200 == 100 {
			net.TakeDelivered()
			drainingWave(net, mesh)
		}
		if err := net.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := net.FlitsConsumed() - flits; got < int64(b.N)*250 {
		b.Fatalf("%d flits consumed in %d cycles; the mesh did not stay full of draining worms", got, b.N)
	}
}

// cubeBacklog tops every source of the 8-cube up to depth 20-flit messages
// (the paper's short length) for its reverse-flip destination; the 16 nodes
// the pattern maps to themselves send nothing.
func cubeBacklog(net *turnmodel.Network, cube *turnmodel.Hypercube, depth int) {
	pattern := turnmodel.ReverseFlipTraffic(cube)
	for src := turnmodel.NodeID(0); int(src) < cube.Nodes(); src++ {
		for dst := pattern.Dest(src, nil); dst != src && net.QueueLen(src) < depth; {
			net.Enqueue(src, dst, 20)
		}
	}
}

// saturatedCube is the paper's 8-cube under reverse-flip traffic with p-cube
// routing (figure 16), every source backlogged. The warm-up fills the network
// and grows its lists and its stock of recycled worms to working size.
func saturatedCube(tb testing.TB) (*turnmodel.Network, *turnmodel.Hypercube) {
	tb.Helper()
	cube := turnmodel.NewHypercube(8)
	alg, err := turnmodel.NewRouting("p-cube", cube)
	if err != nil {
		tb.Fatal(err)
	}
	net := turnmodel.NewNetwork(turnmodel.NetworkConfig{Routing: alg, Seed: 1})
	cubeBacklog(net, cube, 60)
	for c := 0; c < 2000; c++ {
		if err := net.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	net.TakeDelivered()
	cubeBacklog(net, cube, 60)
	return net, cube
}

// BenchmarkNetworkStepCube measures a saturated cycle of the paper's 8-cube
// (see saturatedCube): eight links and an injection port per router, up to
// eight candidates per header, and routers crowded with refused headers —
// where arbitration costs most, and where a release or a hop must offer only
// the headers it can serve. Every 1000 steps the timer stops while the source
// queues are topped up (a source injects at most 50 of its messages in 1000
// cycles), so the network never drains, and the measured steps allocate
// nothing beyond the delivered list's growth, well under one allocation per
// step.
func BenchmarkNetworkStepCube(b *testing.B) {
	net, cube := saturatedCube(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1000 == 999 {
			b.StopTimer()
			net.TakeDelivered()
			cubeBacklog(net, cube, 60)
			b.StartTimer()
		}
		if err := net.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkStepFaultedRecovery measures the same moving-traffic
// engine with the full fault subsystem live: a random transient-fault
// process advancing every cycle and deadlock recovery armed. The delta
// against BenchmarkNetworkStepTraffic is the whole price of resilience.
func BenchmarkNetworkStepFaultedRecovery(b *testing.B) {
	mesh := turnmodel.NewMesh2D(16, 16)
	alg, err := turnmodel.NewRouting("west-first", mesh)
	if err != nil {
		b.Fatal(err)
	}
	net := turnmodel.NewNetwork(turnmodel.NetworkConfig{
		Routing: alg, Seed: 1,
		FaultPlan: turnmodel.FaultPlan{Rate: 1e-6, Repair: 500, Seed: 3},
		Recovery:  turnmodel.FaultRecovery{Enabled: true},
	})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 400; i++ {
		src := turnmodel.NodeID(rng.Intn(256))
		dst := turnmodel.NodeID(rng.Intn(256))
		if src != dst {
			net.Enqueue(src, dst, 10+rng.Intn(190))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%50 == 0 {
			src := turnmodel.NodeID(rng.Intn(256))
			dst := turnmodel.NodeID(rng.Intn(256))
			if src != dst {
				net.Enqueue(src, dst, 10)
			}
		}
		if err := net.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// wedgedVCNetwork is wedgedNetwork on the virtual-channel engine: a 16x16
// double-y mesh whose eastbound physical channels out of column 8 are
// broken, westbound-sourced worms piled against the break, watchdog off.
// Nothing in it can move, so nothing in it is looked at: the refused
// headers' routers sleep and no worm is due for a visit.
func wedgedVCNetwork(tb testing.TB, probe turnmodel.Probe) *turnmodel.VCNetwork {
	tb.Helper()
	mesh := turnmodel.NewMesh2D(16, 16)
	alg, err := turnmodel.NewVCRouting("double-y", mesh)
	if err != nil {
		tb.Fatal(err)
	}
	faults := make([]turnmodel.Channel, 0, 16)
	for y := 0; y < 16; y++ {
		faults = append(faults, turnmodel.Channel{
			From: mesh.ID(turnmodel.Coord{8, y}), Dir: turnmodel.East,
		})
	}
	net := turnmodel.NewVCNetwork(turnmodel.VCNetworkConfig{
		Routing: alg, WatchdogCycles: -1, Faults: faults, Probe: probe,
	})
	for y := 0; y < 16; y++ {
		for x := 0; x < 4; x++ {
			net.Enqueue(mesh.ID(turnmodel.Coord{x, y}), mesh.ID(turnmodel.Coord{15, y}), 10)
		}
	}
	for c := 0; c < 2000; c++ {
		if err := net.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return net
}

// BenchmarkVCNetStep is BenchmarkNetworkStep for internal/vcnet: the
// steady-state cost of one cycle over a permanently wedged network, with
// and without a collector attached, both gated by an absolute ceiling
// (BENCH_baseline.json) that a per-cycle look at the blocked worms or their
// flits would exceed.
func BenchmarkVCNetStep(b *testing.B) {
	run := func(b *testing.B, probe turnmodel.Probe) {
		net := wedgedVCNetwork(b, probe)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := net.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("no-probe", func(b *testing.B) { run(b, nil) })
	b.Run("probe", func(b *testing.B) {
		run(b, turnmodel.NewMetricsCollector(turnmodel.NewMesh2D(16, 16), turnmodel.MetricsOptions{}))
	})
}

// BenchmarkVCNetStepDraining is BenchmarkNetworkStepDraining for
// internal/vcnet: a 16x16 double-y mesh kept full of arrived 200-flit worms
// (see drainingVCWave in alloc_test.go), each streaming over a y link into
// its destination, 256 flits consumed per cycle. The worms sleep on a timer
// while they stream, their y links and ejection channels reserved, so a step
// costs the handful of arrivals, wakes, tails and retirements that fall into
// it, not a visit per worm; BENCH_baseline.json holds it under a ceiling
// that visiting every streaming worm every cycle exceeds several times over.
func BenchmarkVCNetStepDraining(b *testing.B) {
	mesh := turnmodel.NewMesh2D(16, 16)
	alg, err := turnmodel.NewVCRouting("double-y", mesh)
	if err != nil {
		b.Fatal(err)
	}
	net := turnmodel.NewVCNetwork(turnmodel.VCNetworkConfig{Routing: alg})
	drainingVCWave(net, mesh)
	drainingVCWave(net, mesh)
	for c := 0; c < 100; c++ {
		if err := net.Step(); err != nil {
			b.Fatal(err)
		}
	}
	flits := net.FlitsConsumed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%200 == 100 {
			net.TakeDelivered()
			drainingVCWave(net, mesh)
		}
		if err := net.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := net.FlitsConsumed() - flits; got < int64(b.N)*250 {
		b.Fatalf("%d flits consumed in %d cycles; the mesh did not stay full of streaming worms", got, b.N)
	}
}

// BenchmarkVCNetStepTraffic is BenchmarkNetworkStepTraffic for
// internal/vcnet: the same preloaded working set and trickle of arrivals,
// on a double-y mesh whose y links carry two virtual channels.
func BenchmarkVCNetStepTraffic(b *testing.B) {
	mesh := turnmodel.NewMesh2D(16, 16)
	alg, err := turnmodel.NewVCRouting("double-y", mesh)
	if err != nil {
		b.Fatal(err)
	}
	net := turnmodel.NewVCNetwork(turnmodel.VCNetworkConfig{Routing: alg})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 400; i++ {
		src := turnmodel.NodeID(rng.Intn(256))
		dst := turnmodel.NodeID(rng.Intn(256))
		if src != dst {
			net.Enqueue(src, dst, 10+rng.Intn(190))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%50 == 0 {
			src := turnmodel.NodeID(rng.Intn(256))
			dst := turnmodel.NodeID(rng.Intn(256))
			if src != dst {
				net.Enqueue(src, dst, 10)
			}
		}
		if err := net.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionHex benchmarks the Section 7 hexagonal-mesh extension
// experiment (one sweep point per algorithm per iteration).
func BenchmarkExtensionHex(b *testing.B) {
	hex := turnmodel.NewHex(16, 16)
	for _, name := range []string{"dimension-order", "negative-first"} {
		alg, err := turnmodel.NewRouting(name, hex)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(alg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := turnmodel.Simulate(turnmodel.SimConfig{
					Routing: alg,
					RunParams: turnmodel.SimRunParams{
						Pattern:       turnmodel.UniformTraffic(hex),
						InjectionRate: 0.06,
						WarmupCycles:  1500,
						MeasureCycles: 3000,
						Seed:          int64(i),
					},
				})
				if res.Packets == 0 {
					b.Fatal("no packets")
				}
			}
		})
	}
}

// BenchmarkExtensionVC benchmarks the virtual-channel double-y experiment
// on the virtual-channel simulator.
func BenchmarkExtensionVC(b *testing.B) {
	mesh := turnmodel.NewMesh2D(16, 16)
	for _, name := range []string{"double-y", "west-first"} {
		alg, err := turnmodel.NewVCRouting(name, mesh)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := turnmodel.SimulateVC(turnmodel.VCSimConfig{
					Routing: alg,
					RunParams: turnmodel.SimRunParams{
						Pattern:       turnmodel.TransposeTraffic(mesh),
						InjectionRate: 0.06,
						WarmupCycles:  1500,
						MeasureCycles: 3000,
						Seed:          int64(i),
					},
				})
				if res.Packets == 0 {
					b.Fatal("no packets")
				}
			}
		})
	}
}

// BenchmarkVCDependencyGraph benchmarks virtual-channel deadlock
// verification (dateline DOR on an 8x8 torus).
func BenchmarkVCDependencyGraph(b *testing.B) {
	torus := turnmodel.NewKaryNCube(8, 2)
	alg, err := turnmodel.NewVCRouting("dateline-dor", torus)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if cyc := turnmodel.VerifyVCDeadlockFree(alg); cyc != nil {
			b.Fatal("unexpected cycle")
		}
	}
}

// BenchmarkAblationRoutingDelay quantifies Section 7's worry that adaptive
// route selection "may increase node delay": west-first pays 0-4 cycles
// per routing decision against xy's ideal single-cycle router, under
// matrix-transpose traffic.
func BenchmarkAblationRoutingDelay(b *testing.B) {
	mesh := turnmodel.NewMesh2D(16, 16)
	alg, err := turnmodel.NewRouting("west-first", mesh)
	if err != nil {
		b.Fatal(err)
	}
	for _, delay := range []int64{0, 2, 4} {
		b.Run(fmt.Sprintf("delay-%d", delay), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := turnmodel.Simulate(turnmodel.SimConfig{
					Routing:      alg,
					RoutingDelay: delay,
					RunParams: turnmodel.SimRunParams{
						Pattern:       turnmodel.TransposeTraffic(mesh),
						InjectionRate: 0.06,
						WarmupCycles:  1500,
						MeasureCycles: 3000,
						Seed:          int64(i),
					},
				})
				b.ReportMetric(res.AvgLatencyUs, "latency-us")
			}
		})
	}
}

// BenchmarkIdleHeavySweep quantifies the event-driven clock on the
// workload it exists for: a near-idle 16x16 mesh where a packet arrives
// only every several hundred cycles and the measurement window is long.
// The stepped run executes every one of those empty cycles; the
// event-driven run (the default) leaps from arrival to arrival. The two
// produce bit-identical Results — the cross-mode harness in
// internal/engine proves it — so the only difference is wall clock, and
// the relative gate in BENCH_baseline.json requires the event-driven run
// to be at least 5x faster.
func BenchmarkIdleHeavySweep(b *testing.B) {
	mesh := turnmodel.NewMesh2D(16, 16)
	alg, err := turnmodel.NewRouting("west-first", mesh)
	if err != nil {
		b.Fatal(err)
	}
	pattern := turnmodel.UniformTraffic(mesh)
	run := func(b *testing.B, stepped bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := turnmodel.Simulate(turnmodel.SimConfig{
				Routing: alg,
				RunParams: turnmodel.SimRunParams{
					Pattern:          pattern,
					InjectionRate:    0.0002,
					WarmupCycles:     2000,
					MeasureCycles:    40000,
					Seed:             int64(i),
					DisableEventSkip: stepped,
				},
			})
			if res.Packets == 0 {
				b.Fatal("no packets measured")
			}
		}
	}
	b.Run("stepped", func(b *testing.B) { run(b, true) })
	b.Run("eventdriven", func(b *testing.B) { run(b, false) })
}
