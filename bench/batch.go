package main

import (
	"context"
	"fmt"
	"time"

	"turnmodel/internal/fault"
	"turnmodel/internal/sim"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
	"turnmodel/internal/vc"
)

// windows is a warmup/measure pair in simulated cycles.
type windows struct{ Warmup, Measure int64 }

// batchWorkload is one of the five sweep workloads. Bench windows size one
// round to about two seconds on the reference container so that a run
// holds several rounds and reports their median; Full windows are the
// sizes the archived tables under docs/ were produced with (-full).
type batchWorkload struct {
	Name      string
	EnginePkg string // package whose Step the workload spends its time in
	Bench     windows
	Full      windows
	Jobs      int
	// RefFigure is the figure of docs/results-paper-figures.txt the -full
	// run must reproduce row for row; empty when the repo archives none.
	RefFigure string
	// plan generates the workload's points, in the order run reports them.
	plan func(seed int64, win windows) []pointSpec
	// run executes the sweep through the program's own entry point and
	// returns one Result and one wall time (ms) per point in plan order,
	// plus the rendered table when the entry point renders one.
	run func(seed int64, win windows) (results []sim.Result, wallMs []float64, table string, err error)
}

var batchWorkloads = []batchWorkload{
	figureWorkload("mesh-transpose", "figure14", windows{5000, 10000}, 1),
	figureWorkload("cube-reverseflip", "figure16", windows{5000, 10000}, 1),
	{
		Name: "vc-mesh", EnginePkg: "vcnet",
		Bench: windows{2000, 6000}, Full: windows{5000, 15000}, Jobs: 1,
		plan: vcPlan, run: vcRun,
	},
	{
		Name: "faulted-compare", EnginePkg: "network",
		Bench: windows{2500, 5000}, Full: windows{10000, 20000}, Jobs: 1,
		plan: faultedPlan, run: faultedRun,
	},
	figureWorkload("sweep-parallel", "figure13", windows{5000, 10000}, 2),
}

func batchByName(name string) (batchWorkload, bool) {
	for _, w := range batchWorkloads {
		if w.Name == name {
			return w, true
		}
	}
	return batchWorkload{}, false
}

// subSeeds is how many seeds a run cycles its rounds through: round r runs
// the sweep at subSeed(seed, r mod subSeeds). What a sweep costs depends on
// its seed — which points tip into saturation, which channels break — by
// around a tenth between seeds, so a run that measured one seed would say
// as much about the seed as about the code; three seeds per run, every one
// of them covered by the first three rounds, cut that by almost half, and
// a later round of the same seed must repeat the earlier one exactly.
const subSeeds = 3

func subSeed(seed int64, k int) int64 { return seed + 1000*int64(k) }

// pairedSeed is the runner's default per-point seed derivation, which the
// archived tables depend on.
func pairedSeed(base int64, rateIdx int) int64 { return base + int64(rateIdx)*7919 }

func figureWorkload(name, figureID string, bench windows, jobs int) batchWorkload {
	spec, ok := sim.FigureByID(figureID)
	if !ok {
		panic("bench: unknown figure " + figureID)
	}
	return batchWorkload{
		Name: name, EnginePkg: "network",
		Bench: bench, Full: windows{20000, 40000}, Jobs: jobs,
		RefFigure: figureID,
		plan: func(seed int64, win windows) []pointSpec {
			var pts []pointSpec
			for _, alg := range spec.Algorithms {
				for ri, rate := range spec.Rates {
					pts = append(pts, pointSpec{
						ID:         fmt.Sprintf("%s/%s/r%02d", spec.ID, alg, ri),
						NewTopo:    spec.NewTopology,
						Algorithm:  alg,
						NewPattern: spec.NewPattern,
						Params: sim.RunParams{
							InjectionRate: rate,
							WarmupCycles:  win.Warmup,
							MeasureCycles: win.Measure,
							Seed:          pairedSeed(seed, ri),
						},
					})
				}
			}
			return pts
		},
		run: func(seed int64, win windows) ([]sim.Result, []float64, string, error) {
			index := func(ev sim.PointEvent) int {
				for ai, alg := range spec.Algorithms {
					if alg == ev.Algorithm {
						return ai*len(spec.Rates) + ev.RateIndex
					}
				}
				return -1
			}
			out, walls, err := runSweep(sim.Options{
				Specs:         []sim.FigureSpec{spec},
				WarmupCycles:  win.Warmup,
				MeasureCycles: win.Measure,
				Seed:          seed,
				Jobs:          jobs,
			}, len(spec.Algorithms)*len(spec.Rates), index)
			if err != nil {
				return nil, nil, "", err
			}
			var results []sim.Result
			for _, alg := range spec.Algorithms {
				results = append(results, out.Figures[0].Series[alg]...)
			}
			return results, walls, out.Figures[0].Table(), nil
		},
	}
}

// runSweep runs the options through sim.RunSweep, collecting each point's
// wall time from its PointEvent at the plan index the caller maps it to.
func runSweep(opts sim.Options, points int, index func(sim.PointEvent) int) (*sim.Outcome, []float64, error) {
	walls := make([]float64, points)
	opts.OnPoint = func(ev sim.PointEvent) {
		if i := index(ev); i >= 0 && i < points {
			walls[i] = ev.WallMillis
		}
	}
	out, err := sim.RunSweep(context.Background(), opts)
	return out, walls, err
}

// The resilience comparison's three fault-handling modes, spelled out here
// rather than read from sim.ResilienceModes so the traced driver stays an
// independent statement of what the sweep runs.
var faultModes = []struct {
	Name     string
	Recovery bool
	Masking  bool
}{
	{"recovery", true, false},
	{"masking", false, true},
	{"recovery+masking", true, true},
}

var maskingPolicy = fault.RoutingPolicy{Visibility: fault.VisibilityKHop, MisrouteLimit: 4}

// faultReplicas repeats resilience-mesh's fault-rate axis. The runner
// derives one fault history per rate index, shared by every algorithm and
// mode, so the archived experiment's six rates make six histories — and
// what a faulted run costs depends almost entirely on which channels
// happen to break (a single unlucky fault triples a point). Four replicas
// of the axis give 24 histories per sweep, enough for the sweep's cost to
// say something about the code rather than about the seed.
const faultReplicas = 4

func resilienceMesh() sim.ResilienceSpec {
	spec, ok := sim.ResilienceByID("resilience-mesh")
	if !ok {
		panic("bench: resilience-mesh is gone")
	}
	rates := spec.FaultRates
	spec.FaultRates = nil
	for i := 0; i < faultReplicas; i++ {
		spec.FaultRates = append(spec.FaultRates, rates...)
	}
	return spec
}

func faultedPlan(seed int64, win windows) []pointSpec {
	spec := resilienceMesh()
	var pts []pointSpec
	for _, mode := range faultModes {
		for _, alg := range spec.Algorithms {
			for ri, fr := range spec.FaultRates {
				cellSeed := pairedSeed(seed, ri)
				p := sim.RunParams{
					InjectionRate: spec.InjectionRate,
					WarmupCycles:  win.Warmup,
					MeasureCycles: win.Measure,
					Seed:          cellSeed,
					FaultPlan:     fault.Plan{Rate: fr, Repair: spec.RepairDelay, Seed: cellSeed + 1},
					Recovery:      fault.Recovery{Enabled: mode.Recovery},
				}
				if mode.Masking {
					p.FaultRouting = maskingPolicy
				}
				if !mode.Recovery {
					p.WatchdogCycles = -1 // a stuck packet stalls; the run measures that
				}
				pts = append(pts, pointSpec{
					ID:         fmt.Sprintf("%s/%s/%s/f%02d", spec.ID, mode.Name, alg, ri),
					NewTopo:    spec.NewTopology,
					Algorithm:  alg,
					NewPattern: spec.NewPattern,
					Params:     p,
				})
			}
		}
	}
	return pts
}

func faultedRun(seed int64, win windows) ([]sim.Result, []float64, string, error) {
	spec := resilienceMesh()
	perMode := len(spec.Algorithms) * len(spec.FaultRates)
	index := func(ev sim.PointEvent) int {
		for mi, mode := range faultModes {
			if mode.Name != ev.Mode {
				continue
			}
			for ai, alg := range spec.Algorithms {
				if alg == ev.Algorithm {
					return mi*perMode + ai*len(spec.FaultRates) + ev.RateIndex
				}
			}
		}
		return -1
	}
	out, walls, err := runSweep(sim.Options{
		Resilience:    []sim.ResilienceSpec{spec},
		CompareModes:  true,
		WarmupCycles:  win.Warmup,
		MeasureCycles: win.Measure,
		Seed:          seed,
		Jobs:          1,
	}, len(faultModes)*perMode, index)
	if err != nil {
		return nil, nil, "", err
	}
	var results []sim.Result
	for _, mode := range faultModes {
		for _, alg := range spec.Algorithms {
			results = append(results, out.Compares[0].Series[mode.Name][alg]...)
		}
	}
	return results, walls, out.Compares[0].Table(), nil
}

// The virtual-channel comparison (sim.VCComparison's experiment): three
// algorithms, seven rates, two patterns on a 16x16 mesh. VCComparison
// itself reports no per-point times, so the untraced run makes the same
// sim.RunVC calls itself; bench_test.go holds the two together.
var (
	vcAlgorithms = []string{"double-y", "west-first", "xy"}
	vcRates      = []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14}
	vcPatterns   = []struct {
		Name string
		New  func(topology.Topology) traffic.Pattern
	}{
		{"matrix-transpose", func(t topology.Topology) traffic.Pattern { return traffic.NewMeshTranspose(t.(*topology.Mesh)) }},
		{"uniform", func(t topology.Topology) traffic.Pattern { return traffic.Uniform{Topo: t} }},
	}
)

func vcMesh() topology.Topology { return topology.NewMesh2D(16, 16) }

func vcPlan(seed int64, win windows) []pointSpec {
	var pts []pointSpec
	for _, pat := range vcPatterns {
		for ai, alg := range vcAlgorithms {
			for ri, rate := range vcRates {
				pts = append(pts, pointSpec{
					ID:         fmt.Sprintf("vc/%s/%s/r%d", pat.Name, alg, ri),
					NewTopo:    vcMesh,
					Algorithm:  alg,
					VC:         true,
					NewPattern: pat.New,
					Params: sim.RunParams{
						InjectionRate: rate,
						WarmupCycles:  win.Warmup,
						MeasureCycles: win.Measure,
						Seed:          seed + int64(ai),
					},
				})
			}
		}
	}
	return pts
}

func vcRun(seed int64, win windows) ([]sim.Result, []float64, string, error) {
	var (
		results []sim.Result
		walls   []float64
	)
	for _, ps := range vcPlan(seed, win) {
		topo := ps.NewTopo()
		alg, err := vc.New(ps.Algorithm, topo)
		if err != nil {
			return nil, nil, "", err
		}
		params := ps.Params
		params.Pattern = ps.NewPattern(topo)
		start := time.Now()
		results = append(results, sim.RunVC(sim.VCConfig{Routing: alg, RunParams: params}))
		walls = append(walls, float64(time.Since(start))/float64(time.Millisecond))
	}
	return results, walls, "", nil
}
