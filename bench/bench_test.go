package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"

	"turnmodel/internal/fault"
	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
	"turnmodel/internal/vc"
)

// tiny keeps every simulation in these tests to a few milliseconds.
var tiny = windows{Warmup: 200, Measure: 600}

func mesh16() topology.Topology { return topology.NewMesh2D(16, 16) }

func uniform(t topology.Topology) traffic.Pattern { return traffic.Uniform{Topo: t} }

// TestDriverMatchesSim holds the benchmark's layer-by-layer driver to the
// program's own run functions: traced or not, it must return the Result
// sim.Run and sim.RunVC return, on a fault-free, a faulted (recovery and
// masking both live) and a virtual-channel configuration.
func TestDriverMatchesSim(t *testing.T) {
	faulted := sim.RunParams{
		InjectionRate: 0.05,
		WarmupCycles:  500,
		MeasureCycles: 2500,
		Seed:          7,
		FaultPlan:     fault.Plan{Rate: 2e-5, Seed: 8},
		Recovery:      fault.Recovery{Enabled: true},
		FaultRouting:  maskingPolicy,
	}
	cases := []struct {
		name  string
		point pointSpec
		check func(t *testing.T, r sim.Result)
	}{
		{
			name: "fault-free",
			point: pointSpec{NewTopo: mesh16, Algorithm: "west-first", NewPattern: uniform,
				Params: sim.RunParams{InjectionRate: 0.06, WarmupCycles: tiny.Warmup, MeasureCycles: tiny.Measure, Seed: 3}},
			check: func(t *testing.T, r sim.Result) {
				if r.Delivered == 0 || r.FaultEvents != 0 {
					t.Errorf("delivered %d packets with %d fault events", r.Delivered, r.FaultEvents)
				}
			},
		},
		{
			name:  "faulted",
			point: pointSpec{NewTopo: mesh16, Algorithm: "west-first", NewPattern: uniform, Params: faulted},
			check: func(t *testing.T, r sim.Result) {
				if r.FaultEvents == 0 || r.MaskedFaults == 0 || r.Aborted == 0 {
					t.Errorf("the faulted path is not live: %d fault events, %d masked decisions, %d aborts", r.FaultEvents, r.MaskedFaults, r.Aborted)
				}
			},
		},
		{
			name: "virtual-channel",
			point: pointSpec{NewTopo: mesh16, Algorithm: "double-y", VC: true, NewPattern: uniform,
				Params: sim.RunParams{InjectionRate: 0.08, WarmupCycles: tiny.Warmup, MeasureCycles: tiny.Measure, Seed: 5}},
			check: func(t *testing.T, r sim.Result) {
				if r.Delivered == 0 {
					t.Error("nothing delivered")
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			topo := c.point.NewTopo()
			params := c.point.Params
			params.Pattern = c.point.NewPattern(topo)
			var want sim.Result
			if c.point.VC {
				alg, err := vc.New(c.point.Algorithm, topo)
				if err != nil {
					t.Fatal(err)
				}
				want = sim.RunVC(sim.VCConfig{Routing: alg, RunParams: params})
			} else {
				alg, err := routing.New(c.point.Algorithm, topo)
				if err != nil {
					t.Fatal(err)
				}
				want = sim.Run(sim.Config{Routing: alg, RunParams: params})
			}
			c.check(t, want)
			for _, traced := range []bool{false, true} {
				var tr *pointTrace
				if traced {
					tr = new(pointTrace)
				}
				got, err := drivePoint(c.point, tr)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("traced=%v: driver returned\n%+v\nsim returned\n%+v", traced, got, want)
				}
				if traced && (tr.Spans[lStep].Count == 0 || tr.Spans[lPoint].Ns < tr.Spans[lStep].Ns) {
					t.Errorf("implausible spans: %+v", tr.Spans)
				}
			}
		})
	}
}

// TestPlansMatchEntryPoints checks, for every batch workload, that the
// benchmark's generated plan — seeds, fault plans, modes, order — is what
// the sim entry point actually runs: the two must agree point for point.
func TestPlansMatchEntryPoints(t *testing.T) {
	for _, w := range batchWorkloads {
		t.Run(w.Name, func(t *testing.T) {
			const seed = 9
			results, walls, _, err := w.run(seed, tiny)
			if err != nil {
				t.Fatal(err)
			}
			plan := w.plan(seed, tiny)
			if len(results) != len(plan) || len(walls) != len(plan) {
				t.Fatalf("%d results and %d wall times for %d planned points", len(results), len(walls), len(plan))
			}
			own, _, err := driveAll(plan, w.Jobs, false)
			if err != nil {
				t.Fatal(err)
			}
			if bad := countMismatches(digests(own), digests(results)); bad != 0 {
				t.Errorf("%d of %d points differ between the entry point and the driver", bad, len(plan))
			}
			for i, ms := range walls {
				if ms <= 0 {
					t.Errorf("point %s has no wall time", plan[i].ID)
				}
			}
		})
	}
}

// TestVCRunIsVCComparison: the vc-mesh workload calls sim.RunVC itself to
// get per-point times; it must run exactly sim.VCComparison's experiment.
func TestVCRunIsVCComparison(t *testing.T) {
	const seed = 4
	results, _, _, err := vcRun(seed, tiny)
	if err != nil {
		t.Fatal(err)
	}
	cmp := sim.VCComparison(tiny.Warmup, tiny.Measure, seed)
	var want []sim.Result
	for _, pat := range cmp.Patterns {
		for _, series := range pat.Results {
			want = append(want, series...)
		}
	}
	if !reflect.DeepEqual(results, want) {
		t.Error("vcRun and sim.VCComparison disagree")
	}
}

func TestGoldensDescribeThePlans(t *testing.T) {
	for _, w := range batchWorkloads {
		var plans [][]pointSpec
		for k := 0; k < subSeeds; k++ {
			plans = append(plans, w.plan(subSeed(goldenSeed, k), w.Bench))
		}
		if _, err := loadGolden(".", w, plans); err != nil {
			t.Error(err)
		}
	}
}

func TestPercentileBeyondRule(t *testing.T) {
	values := make([]float64, 160)
	for i := range values {
		values[i] = float64(160 - i) // unsorted on purpose
	}
	if v, beyond := percentile(values, 90); v != 144 || beyond != 16 {
		t.Errorf("p90 of 1..160 = %v with %d beyond, want 144 with 16", v, beyond)
	}
	if v, beyond := percentile(values, 50); v != 80 || beyond != 80 {
		t.Errorf("p50 of 1..160 = %v with %d beyond, want 80 with 80", v, beyond)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{160, 90}, {100, 90}, {99, 80}, {80, 80}, {50, 80}, {49, 50}, {20, 50}, {19, 0}, {1100, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.want > 0 {
			vals := make([]float64, c.n)
			if _, beyond := percentile(vals, c.want); beyond < minBeyond {
				t.Errorf("p%v of %d samples has only %d beyond", c.want, c.n, beyond)
			}
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	values := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(values); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
	// statistics.quantiles([3, 5, 8], n=4) == [3.0, 5.0, 8.0]
	if got := quartileSpread([]float64{5, 8, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(3,5,8) = %v, want 1", got)
	}
}

// fakeClock advances only when slept on; Sleep oversleeps by a fixed
// amount, which the generator must report as its own lateness.
type fakeClock struct {
	mu        sync.Mutex
	now       time.Time
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d + c.oversleep)
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{now: time.Unix(1000, 0), oversleep: 2 * ms}
	// Job 1 falls due while job 0 occupies the only connection; job 2 is
	// due long after both are done.
	schedule := []time.Duration{0, 10 * ms, 200 * ms}
	timings := openLoop(clk, schedule, 1, func(conn, job int) {
		clk.mu.Lock()
		clk.now = clk.now.Add(50 * ms) // every job takes 50 ms
		clk.mu.Unlock()
	})
	want := []jobTiming{
		{Due: 0, Issued: 0, Done: 50 * ms, OnTime: false},
		{Due: 10 * ms, Issued: 50 * ms, Done: 100 * ms, OnTime: false},
		{Due: 200 * ms, Issued: 202 * ms, Done: 252 * ms, OnTime: true},
	}
	if !reflect.DeepEqual(timings, want) {
		t.Fatalf("timings\n%+v\nwant\n%+v", timings, want)
	}
	// The delayed job is timed from when it was due, not from when a
	// connection took it: 90 ms, of which 40 ms waiting in the generator.
	if got := timings[1].Done - timings[1].Due; got != 90*ms {
		t.Errorf("delayed job's latency %v, want 90ms", got)
	}
	if late := generatorLatenessMs(timings); !reflect.DeepEqual(late, []float64{2}) {
		t.Errorf("generator lateness %v, want [2] (only the on-time job counts)", late)
	}
	if n := backlogAtEnd(timings); n != 0 {
		t.Errorf("backlog at end %d, want 0", n)
	}
	// A generator that cannot keep up: everything is due at once.
	timings = openLoop(clk, []time.Duration{0, 0, 0, 0}, 1, func(conn, job int) { clk.Sleep(10 * ms) })
	if n := backlogAtEnd(timings); n != 2 {
		t.Errorf("backlog at end %d, want 2 (jobs 1 and 2 start after the last was due)", n)
	}
}

func TestArrivalScheduleIsSeededAndOrdered(t *testing.T) {
	a := arrivalSchedule(rand.New(rand.NewSource(1)), 100, 10*time.Second)
	b := arrivalSchedule(rand.New(rand.NewSource(1)), 100, 10*time.Second)
	c := arrivalSchedule(rand.New(rand.NewSource(2)), 100, 10*time.Second)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("the schedule must be a function of the seed and nothing else")
	}
	for i := range a {
		slot := 100 * time.Millisecond
		if a[i] < time.Duration(i)*slot || a[i] >= time.Duration(i+1)*slot {
			t.Fatalf("arrival %d at %v is outside its slot", i, a[i])
		}
	}
}

func TestPlanJobsMix(t *testing.T) {
	jobs := planJobs(rand.New(rand.NewSource(1)), 240, 1_000_000)
	var n [3]int
	keys := map[string]bool{}
	for _, j := range jobs {
		n[j.Kind]++
		key, err := j.Spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		if keys[key] {
			t.Fatalf("two jobs share content address %s", key)
		}
		keys[key] = true
		if err := j.Spec.Validate(); err != nil {
			t.Fatal(err)
		}
		switch j.Kind {
		case kindFresh:
			if j.Preload != nil {
				t.Error("a fresh job has a preload")
			}
		case kindWarm:
			if !reflect.DeepEqual(*j.Preload, j.Spec) {
				t.Error("a resubmit's preload is not the same spec")
			}
		case kindHalfShared:
			if len(j.Preload.Rates) != 1 || j.Preload.Rates[0] != j.Spec.Rates[0] || j.Preload.Seed != j.Spec.Seed {
				t.Error("a half-shared job's preload does not leave exactly its first point cached")
			}
		}
	}
	if n != [3]int{120, 60, 60} {
		t.Errorf("mix %v, want 120 fresh, 60 half-shared, 60 resubmits", n)
	}
}

func TestFillLedger(t *testing.T) {
	rows := []spanRow{
		{Name: "run", TotalS: 10},
		{Name: "point", Parent: "run", TotalS: 8},
		{Name: "step", Parent: "point", TotalS: 6},
		{Name: "generate", Parent: "point", TotalS: 1},
	}
	fillLedger(rows)
	if rows[0].SelfS != 2 || rows[1].SelfS != 1 || rows[2].SelfS != 6 {
		t.Errorf("self times %v %v %v, want 2 1 6", rows[0].SelfS, rows[1].SelfS, rows[2].SelfS)
	}
	if rows[1].ShareOfParent != 0.8 || rows[2].ShareOfParent != 0.75 {
		t.Errorf("shares %v %v, want 0.8 0.75", rows[1].ShareOfParent, rows[2].ShareOfParent)
	}
}

func TestReferenceRows(t *testing.T) {
	table := "figureX: title\npaper: claim\n\nrate     |   a |   b\n         | thr | thr\n0.010    |  1.0  2.00 yes |  3.0  4.00    \n0.020    |  5.0  6.00 yes |  7.0  8.00 yes\n\nmax sustainable throughput:\n  a 5.0\n"
	cells := tableCells("other: x\n0.5 | 9\n"+table, "figureX")
	want := []string{"0.010|1.0  2.00 yes", "0.010|3.0  4.00", "0.020|5.0  6.00 yes", "0.020|7.0  8.00 yes"}
	if !reflect.DeepEqual(cells, want) {
		t.Errorf("cells %q, want %q", cells, want)
	}
	// The archived file must hold a row cell for every point of the three
	// figure workloads.
	raw, err := os.ReadFile(filepath.Join("..", "docs", "results-paper-figures.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range batchWorkloads {
		if w.RefFigure == "" {
			continue
		}
		if got, want := len(tableCells(string(raw), w.RefFigure)), len(w.plan(goldenSeed, w.Full)); got != want {
			t.Errorf("%s: docs archive %d cells of %s, the workload has %d points", w.Name, got, w.RefFigure, want)
		}
	}
}

func TestBareTrace(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"-trace"}, []string{"-trace", "1"}},
		{[]string{"--trace", "0", "-seed", "2"}, []string{"--trace", "0", "-seed", "2"}},
		{[]string{"-trace", "-seed", "2"}, []string{"-trace", "1", "-seed", "2"}},
		{[]string{"-trace", "1"}, []string{"-trace", "1"}},
	} {
		if got := bareTrace(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("bareTrace(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON: names are well-formed and within the
// contract's limits, and BENCHMARK.json declares exactly the catalogue.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || seen[d.Name] {
				t.Errorf("bad or repeated metric %+v", d)
			}
			seen[d.Name] = true
		}
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("bad or repeated workload %+v", w)
		}
		seen[w.Name] = true
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d end-to-end, %d per-layer metrics, %d workloads: outside 16 / 128 / 2..8", len(endToEnd), len(perLayer), len(workloads))
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("the contract requires setup_s in s, lower is better; have %+v", d)
	}

	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Workloads, workloads) {
		t.Error("BENCHMARK.json workloads differ from the catalogue")
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Error("BENCHMARK.json end_to_end differs from the catalogue")
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Error("BENCHMARK.json per_layer differs from the catalogue")
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench"}) || !reflect.DeepEqual(decl.Command, []string{"go", "run", "-C", "bench", "."}) {
		t.Errorf("BENCHMARK.json command %q paths %q", decl.Command, decl.Paths)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", decl.RunSeconds)
	}
	// Every batch workload of the catalogue has an implementation, and the
	// one that has none there is the service workload.
	for _, w := range workloads {
		if _, ok := batchByName(w.Name); !ok && w.Name != "serve-mixed" {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

// TestContractLine: an untraced result lists every end-to-end metric and a
// traced one every per-layer metric, zero where the workload has none.
func TestContractLine(t *testing.T) {
	res := newRunResult(runConfig{Workload: "mesh-transpose"})
	if _, err := res.contractLine(); err == nil {
		t.Error("an untraced result without its end-to-end metrics must not print")
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = 1.5
	}
	res.Correct, res.Attempted = true, 3
	for _, trace := range []bool{false, true} {
		res.Trace = trace
		line, err := res.contractLine()
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if len(got.Metrics) != len(defs) || !got.Correct || got.Attempted != 3 {
			t.Errorf("trace=%v: %d metrics, want %d: %s", trace, len(got.Metrics), len(defs), line)
		}
		for _, d := range defs {
			if got.Metrics[d.Name].Unit != d.Unit {
				t.Errorf("trace=%v: metric %s missing or in the wrong unit", trace, d.Name)
			}
		}
	}
}
