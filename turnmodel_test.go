package turnmodel_test

import (
	"context"
	"strings"
	"testing"

	"turnmodel"
)

// These tests exercise the public facade end to end: everything a
// downstream user would touch must work through the root package alone.

func TestFacadeTopologies(t *testing.T) {
	mesh := turnmodel.NewMesh2D(4, 4)
	if mesh.Nodes() != 16 || mesh.Dims() != 2 {
		t.Error("mesh basics wrong")
	}
	mesh3 := turnmodel.NewMesh(2, 3, 4)
	if mesh3.Nodes() != 24 {
		t.Error("3D mesh wrong")
	}
	torus := turnmodel.NewKaryNCube(4, 2)
	if torus.Nodes() != 16 {
		t.Error("torus wrong")
	}
	if turnmodel.NewTorus(3, 5).Nodes() != 15 {
		t.Error("mixed-radix torus wrong")
	}
	cube := turnmodel.NewHypercube(5)
	if cube.Nodes() != 32 {
		t.Error("hypercube wrong")
	}
	if turnmodel.West.Opposite() != turnmodel.East || turnmodel.South.Dim() != 1 {
		t.Error("direction constants wrong")
	}
	if turnmodel.North.Dim() != 1 || !turnmodel.North.Positive() {
		t.Error("north wrong")
	}
}

func TestFacadeRoutingRegistry(t *testing.T) {
	names := turnmodel.RoutingNames()
	if len(names) < 10 {
		t.Fatalf("registry too small: %v", names)
	}
	mesh := turnmodel.NewMesh2D(4, 4)
	alg, err := turnmodel.NewRouting("negative-first", mesh)
	if err != nil {
		t.Fatal(err)
	}
	if alg.Name() != "negative-first" {
		t.Errorf("Name = %q", alg.Name())
	}
	if _, err := turnmodel.NewRouting("bogus", mesh); err == nil {
		t.Error("bogus algorithm accepted")
	}
}

func TestFacadeTurnModelAnalysis(t *testing.T) {
	if got := len(turnmodel.AbstractCycles(3)); got != 6 {
		t.Errorf("AbstractCycles(3) = %d, want 6", got)
	}
	if got := len(turnmodel.AllTurns90(3)); got != 24 {
		t.Errorf("AllTurns90(3) = %d, want 24", got)
	}
	if turnmodel.MinimumProhibitedTurns(4) != 12 {
		t.Error("Theorem 1 bound wrong")
	}
	combos := turnmodel.Census2D(3, 3)
	free := 0
	for _, c := range combos {
		if c.DeadlockFree {
			free++
		}
	}
	if free != 12 {
		t.Errorf("census: %d of 16 deadlock free, want 12", free)
	}
	if got := len(turnmodel.SymmetryClasses(combos)); got != 3 {
		t.Errorf("symmetry classes = %d, want 3", got)
	}
}

func TestFacadeVerification(t *testing.T) {
	mesh := turnmodel.NewMesh2D(5, 5)
	for _, name := range []string{"xy", "west-first", "north-last", "negative-first"} {
		alg, err := turnmodel.NewRouting(name, mesh)
		if err != nil {
			t.Fatal(err)
		}
		if cyc := turnmodel.VerifyDeadlockFree(alg); cyc != nil {
			t.Errorf("%s: unexpected cycle %v", name, cyc)
		}
	}
	unsafe, _ := turnmodel.NewRouting("fully-adaptive", mesh)
	if turnmodel.VerifyDeadlockFree(unsafe) == nil {
		t.Error("fully adaptive verified as deadlock free")
	}
	g := turnmodel.DependencyGraph(unsafe)
	if g.Vertices() == 0 || g.Edges() == 0 {
		t.Error("dependency graph empty")
	}
}

func TestFacadeNumberings(t *testing.T) {
	mesh := turnmodel.NewMesh2D(5, 4)
	wf, _ := turnmodel.NewRouting("west-first", mesh)
	nl, _ := turnmodel.NewRouting("north-last", mesh)
	nf, _ := turnmodel.NewRouting("negative-first", mesh)
	if err := turnmodel.ValidateNumbering(turnmodel.WestFirstNumbering(mesh), wf); err != nil {
		t.Error(err)
	}
	if err := turnmodel.ValidateNumbering(turnmodel.NorthLastNumbering(mesh), nl); err != nil {
		t.Error(err)
	}
	if err := turnmodel.ValidateNumbering(turnmodel.NegativeFirstNumbering(mesh), nf); err != nil {
		t.Error(err)
	}
	// Cross-validation must fail: the west-first numbering does not
	// certify north-last.
	if err := turnmodel.ValidateNumbering(turnmodel.WestFirstNumbering(mesh), nl); err == nil {
		t.Error("west-first numbering wrongly certified north-last")
	}
}

func TestFacadeTraffic(t *testing.T) {
	mesh := turnmodel.NewMesh2D(16, 16)
	cube := turnmodel.NewHypercube(8)
	if got := turnmodel.AveragePathLength(turnmodel.TransposeTraffic(mesh), mesh); got < 11.3 || got > 11.4 {
		t.Errorf("transpose path length %.3f", got)
	}
	if got := turnmodel.AveragePathLength(turnmodel.ReverseFlipTraffic(cube), cube); got < 4.26 || got > 4.28 {
		t.Errorf("reverse-flip path length %.3f", got)
	}
	if turnmodel.UniformTraffic(mesh).Name() != "uniform" {
		t.Error("uniform name wrong")
	}
	if turnmodel.BitComplementTraffic(mesh) == nil || turnmodel.HotspotTraffic(mesh, 0, 0.1) == nil {
		t.Error("extra patterns missing")
	}
	if turnmodel.HypercubeTransposeTraffic(cube) == nil {
		t.Error("hypercube transpose missing")
	}
}

func TestFacadeSimulation(t *testing.T) {
	mesh := turnmodel.NewMesh2D(8, 8)
	alg, _ := turnmodel.NewRouting("west-first", mesh)
	res := turnmodel.Simulate(turnmodel.SimConfig{
		Routing: alg,
		RunParams: turnmodel.SimRunParams{
			Pattern:       turnmodel.UniformTraffic(mesh),
			InjectionRate: 0.05,
			WarmupCycles:  3000,
			MeasureCycles: 20000,
			Seed:          5,
		},
	})
	if !res.Sustainable || res.Packets == 0 {
		t.Errorf("simulation failed: %+v", res)
	}
	rs := turnmodel.SweepRates(turnmodel.SimConfig{
		Routing: alg,
		RunParams: turnmodel.SimRunParams{
			Pattern:      turnmodel.UniformTraffic(mesh),
			WarmupCycles: 1000, MeasureCycles: 2000,
		},
	}, []float64{0.01, 0.02})
	if len(rs) != 2 {
		t.Fatalf("sweep returned %d results", len(rs))
	}
}

func TestFacadeManualNetwork(t *testing.T) {
	mesh := turnmodel.NewMesh2D(4, 4)
	alg, _ := turnmodel.NewRouting("xy", mesh)
	net := turnmodel.NewNetwork(turnmodel.NetworkConfig{Routing: alg})
	p := net.Enqueue(0, 15, 10)
	for i := 0; i < 1000 && net.InFlight() > 0; i++ {
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if p.Latency() != 6+10-1 {
		t.Errorf("latency %d, want 15", p.Latency())
	}
	if turnmodel.FlitsPerMicrosecond != 20 {
		t.Error("bandwidth constant wrong")
	}
}

func TestFacadeFigures(t *testing.T) {
	if len(turnmodel.Figures()) != 5 {
		t.Error("figures catalog wrong")
	}
	spec, ok := turnmodel.FigureByID("figure16")
	if !ok {
		t.Fatal("figure16 missing")
	}
	spec.Rates = []float64{0.05}
	sweep := func(jobs int) *turnmodel.SweepOutcome {
		t.Helper()
		out, err := turnmodel.RunSweep(context.Background(), turnmodel.SweepOptions{
			Specs: []turnmodel.FigureSpec{spec}, WarmupCycles: 300, MeasureCycles: 600, Seed: 1, Jobs: jobs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := sweep(1)
	if !strings.Contains(serial.Figures[0].Table(), "figure16") {
		t.Error("figure table malformed")
	}

	// The parallel runner agrees with the serial path and reports timings.
	par := sweep(4)
	if len(par.Figures) != 1 || par.Figures[0].Table() != serial.Figures[0].Table() {
		t.Error("Jobs=4 diverges from Jobs=1")
	}
	if par.Report.Totals.JobsRun != len(spec.Algorithms) {
		t.Errorf("report counted %d jobs", par.Report.Totals.JobsRun)
	}
	spec.Algorithms = []string{"bogus"}
	if _, err := turnmodel.RunSweep(context.Background(), turnmodel.SweepOptions{Specs: []turnmodel.FigureSpec{spec}}); err == nil {
		t.Error("bad algorithm not reported")
	}
}

func TestFacadeAdaptiveness(t *testing.T) {
	cube := turnmodel.NewHypercube(6)
	pc, _ := turnmodel.NewRouting("p-cube", cube)
	src, dst := uint(0b101010), uint(0b010101)
	if got := turnmodel.PCubeShortestPaths(src, dst); got != 36 {
		t.Errorf("PCubeShortestPaths = %d, want 36", got)
	}
	if got := turnmodel.CountShortestPaths(pc, turnmodel.NodeID(src), turnmodel.NodeID(dst)); got != 36 {
		t.Errorf("CountShortestPaths = %d, want 36", got)
	}
	minimal, extra := turnmodel.PCubeChoices(src, dst, 6)
	if minimal != 3 || extra != 0 {
		t.Errorf("PCubeChoices = %d,%d", minimal, extra)
	}
	mesh := turnmodel.NewMesh2D(6, 6)
	wf, _ := turnmodel.NewRouting("west-first", mesh)
	if r := turnmodel.AverageAdaptivenessRatio(wf); r <= 0.5 {
		t.Errorf("adaptiveness ratio %.3f <= 1/2", r)
	}
}

func TestFacadeVirtualChannels(t *testing.T) {
	mesh := turnmodel.NewMesh2D(4, 4)
	torus := turnmodel.NewKaryNCube(4, 2)
	dy, err := turnmodel.NewVCRouting("double-y", mesh)
	if err != nil {
		t.Fatal(err)
	}
	if cyc := turnmodel.VerifyVCDeadlockFree(dy); cyc != nil {
		t.Errorf("double-y not deadlock free: %v", cyc)
	}
	naive, err := turnmodel.NewVCRouting("naive-torus-dor", torus)
	if err != nil {
		t.Fatal(err)
	}
	if turnmodel.VerifyVCDeadlockFree(naive) == nil {
		t.Error("naive torus DOR verified deadlock free")
	}
	// Lifted physical algorithm.
	if _, err := turnmodel.NewVCRouting("west-first", mesh); err != nil {
		t.Error(err)
	}
	// Manual VC network drive.
	net := turnmodel.NewVCNetwork(turnmodel.VCNetworkConfig{Routing: dy})
	p := net.Enqueue(0, 15, 5)
	for i := 0; i < 1000 && net.InFlight() > 0; i++ {
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if p.Latency() != 6+5-1 {
		t.Errorf("VC zero-load latency %d, want 10", p.Latency())
	}
	// One VC simulation run.
	res := turnmodel.SimulateVC(turnmodel.VCSimConfig{
		Routing: dy,
		RunParams: turnmodel.SimRunParams{
			Pattern:       turnmodel.UniformTraffic(mesh),
			InjectionRate: 0.04,
			WarmupCycles:  1000,
			MeasureCycles: 4000,
			Seed:          3,
		},
	})
	if res.Packets == 0 || res.Deadlocked {
		t.Errorf("VC simulation failed: %+v", res)
	}
}

func TestFacadeFaults(t *testing.T) {
	mesh := turnmodel.NewMesh2D(4, 4)
	alg, _ := turnmodel.NewRouting("west-first", mesh)
	fault := turnmodel.Channel{
		From: mesh.ID(turnmodel.Coord{1, 0}),
		To:   mesh.ID(turnmodel.Coord{2, 0}),
		Dir:  turnmodel.East,
	}
	net := turnmodel.NewNetwork(turnmodel.NetworkConfig{
		Routing: alg,
		Faults:  []turnmodel.Channel{fault},
	})
	p := net.Enqueue(mesh.ID(turnmodel.Coord{0, 0}), mesh.ID(turnmodel.Coord{3, 1}), 5)
	for i := 0; i < 5000 && net.InFlight() > 0; i++ {
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if p.Arrived < 0 {
		t.Error("adaptive routing did not deliver around the fault")
	}
}

func TestFacadePolicies(t *testing.T) {
	if turnmodel.LowestDimensionOutput().Name() != "xy" {
		t.Error("lowest-dimension policy wrong")
	}
	if turnmodel.RandomOutput().Name() != "random" {
		t.Error("random policy wrong")
	}
	if turnmodel.StraightFirstOutput().Name() != "straight-first" {
		t.Error("straight-first policy wrong")
	}
	if turnmodel.LocalFCFSInput().Name() != "local-fcfs" {
		t.Error("fcfs policy wrong")
	}
	if turnmodel.OldestFirstInput().Name() != "oldest-first" {
		t.Error("oldest policy wrong")
	}
}

func TestFacadePhasedRouting(t *testing.T) {
	// Build a custom discipline through the public API: "south-first".
	mesh := turnmodel.NewMesh2D(5, 5)
	alg := turnmodel.NewPhasedRouting(mesh, "south-first",
		[]turnmodel.Direction{turnmodel.South},
		[]turnmodel.Direction{turnmodel.West, turnmodel.East, turnmodel.North},
	)
	if alg.Name() != "south-first" {
		t.Errorf("Name = %q", alg.Name())
	}
	if cyc := turnmodel.VerifyDeadlockFree(alg); cyc != nil {
		t.Errorf("south-first not deadlock free: %v", cyc)
	}
	// Southbound hops must come first when both south and east are needed.
	src := mesh.ID(turnmodel.Coord{1, 3})
	cands := alg.Candidates(src, mesh.ID(turnmodel.Coord{3, 1}), turnmodel.Direction(-1), false)
	if len(cands) != 1 || cands[0] != turnmodel.South {
		t.Errorf("candidates = %v, want [south]", cands)
	}
}

func TestFacadeCCC(t *testing.T) {
	c := turnmodel.NewCCC(3)
	if c.Nodes() != 24 {
		t.Fatalf("Nodes = %d", c.Nodes())
	}
	asc, err := turnmodel.NewVCRouting("ccc-ascending", c)
	if err != nil {
		t.Fatal(err)
	}
	if cyc := turnmodel.VerifyVCDeadlockFree(asc); cyc != nil {
		t.Errorf("ccc-ascending not deadlock free: %v", cyc)
	}
	naive, err := turnmodel.NewVCRouting("ccc-naive", c)
	if err != nil {
		t.Fatal(err)
	}
	if turnmodel.VerifyVCDeadlockFree(naive) == nil {
		t.Error("ccc-naive verified deadlock free")
	}
	// Deliver a packet end to end on the VC simulator.
	net := turnmodel.NewVCNetwork(turnmodel.VCNetworkConfig{Routing: asc})
	p := net.Enqueue(0, 23, 5)
	for i := 0; i < 5000 && net.InFlight() > 0; i++ {
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if p.Arrived < 0 {
		t.Error("CCC packet not delivered")
	}
}

func TestFacadeFaultRouting(t *testing.T) {
	mesh := turnmodel.NewMesh2D(6, 6)
	alg, err := turnmodel.NewRouting("negative-first", mesh)
	if err != nil {
		t.Fatal(err)
	}
	plan := turnmodel.FaultPlan{Static: []turnmodel.Channel{
		{From: 7, Dir: turnmodel.East},
		{From: 14, Dir: turnmodel.North},
	}}
	pol := turnmodel.FaultRoutingPolicy{
		Visibility:    turnmodel.FaultVisibilityKHop,
		MisrouteLimit: 4,
	}
	cyc, err := turnmodel.VerifyDeadlockFreeFaulted(alg, plan, pol)
	if err != nil {
		t.Fatal(err)
	}
	if cyc != nil {
		t.Errorf("faulted negative-first not deadlock free: %v", cyc)
	}
	// The unsafe baseline stays cyclic under the same faults.
	fa, err := turnmodel.NewRouting("fully-adaptive", mesh)
	if err != nil {
		t.Fatal(err)
	}
	cyc, err = turnmodel.VerifyDeadlockFreeFaulted(fa, plan, turnmodel.FaultRoutingPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if cyc == nil {
		t.Error("fully-adaptive verified deadlock free under faults")
	}
	// An invalid plan surfaces as an error, not a panic.
	if _, err := turnmodel.VerifyDeadlockFreeFaulted(alg, turnmodel.FaultPlan{Rate: 2}, pol); err == nil {
		t.Error("invalid plan accepted")
	}
	// Simulate with the policy on: masking accounting lands in the result.
	res := turnmodel.Simulate(turnmodel.SimConfig{
		Routing: alg,
		RunParams: turnmodel.SimRunParams{
			Pattern:       turnmodel.UniformTraffic(mesh),
			InjectionRate: 0.03,
			WarmupCycles:  500,
			MeasureCycles: 2000,
			Seed:          3,
			FaultPlan:     plan,
			Recovery:      turnmodel.FaultRecovery{Enabled: true},
			FaultRouting:  pol,
		},
	})
	if res.MaskedFaults == 0 {
		t.Error("no masked decisions with two static faults and an adaptive algorithm")
	}
	// The mode comparison's configurations are exported.
	if len(turnmodel.ResilienceModes()) != 3 {
		t.Errorf("ResilienceModes = %d, want 3", len(turnmodel.ResilienceModes()))
	}
}
