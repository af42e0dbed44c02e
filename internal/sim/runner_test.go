package sim

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"turnmodel/internal/metrics"
	"turnmodel/internal/simcache"
	"turnmodel/internal/topology"
)

// runPlan adapts the streaming Runner to the batch shape most tests want:
// figures plus report, no context plumbing.
func runPlan(p Options) ([]FigureResult, *Report, error) {
	out, err := RunSweep(context.Background(), p)
	if err != nil {
		return nil, nil, err
	}
	return out.Figures, out.Report, nil
}

// runFigure runs one figure spec serially, standing in for the deleted
// RunFigure convenience.
func runFigure(spec FigureSpec, warmup, measure, seed int64) (FigureResult, error) {
	out, err := RunSweep(context.Background(), Options{
		Specs:         []FigureSpec{spec},
		WarmupCycles:  warmup,
		MeasureCycles: measure,
		Seed:          seed,
		Jobs:          1,
	})
	if err != nil {
		return FigureResult{}, err
	}
	return out.Figures[0], nil
}

// runResilience and runResilienceCompare run a single resilience spec
// through the Runner, standing in for the deleted positional entry points.
func runResilience(spec ResilienceSpec, warmup, measure, seed int64, jobs int) (ResilienceResult, error) {
	out, err := RunSweep(context.Background(), Options{
		Resilience:    []ResilienceSpec{spec},
		WarmupCycles:  warmup,
		MeasureCycles: measure,
		Seed:          seed,
		Jobs:          jobs,
	})
	if err != nil {
		return ResilienceResult{}, err
	}
	return out.Resilience[0], nil
}

func runResilienceCompare(spec ResilienceSpec, warmup, measure, seed int64, jobs int) (ResilienceCompareResult, error) {
	out, err := RunSweep(context.Background(), Options{
		Resilience:    []ResilienceSpec{spec},
		CompareModes:  true,
		WarmupCycles:  warmup,
		MeasureCycles: measure,
		Seed:          seed,
		Jobs:          jobs,
	})
	if err != nil {
		return ResilienceCompareResult{}, err
	}
	return out.Compares[0], nil
}

// quickPlan is a scaled-down two-figure run that exercises multiple
// topologies, algorithms and rates while staying fast enough for -race.
func quickPlan(jobs int, seedFn SeedFunc) Options {
	f13, _ := FigureByID("figure13")
	f13.Rates = []float64{0.01, 0.05}
	f13.Algorithms = []string{"xy", "west-first"}
	ext, _ := FigureByID("extension-octagonal")
	ext.Rates = []float64{0.02, 0.06}
	return Options{
		Specs:         []FigureSpec{f13, ext},
		WarmupCycles:  300,
		MeasureCycles: 800,
		Seed:          2,
		Jobs:          jobs,
		SeedFn:        seedFn,
	}
}

// figuresEqual compares two figure result slices point by point. Spec
// holds function fields, so reflect.DeepEqual on the whole FigureResult
// would always fail; the Series maps and rendered tables carry everything
// measurable.
func figuresEqual(t *testing.T, a, b []FigureResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Spec.ID != b[i].Spec.ID {
			t.Fatalf("figure %d: order differs: %s vs %s", i, a[i].Spec.ID, b[i].Spec.ID)
		}
		if !reflect.DeepEqual(a[i].Series, b[i].Series) {
			t.Errorf("%s: series differ:\n%+v\n%+v", a[i].Spec.ID, a[i].Series, b[i].Series)
		}
		if a[i].Table() != b[i].Table() {
			t.Errorf("%s: tables differ:\n%s\n%s", a[i].Spec.ID, a[i].Table(), b[i].Table())
		}
	}
}

func TestRunPlanParallelMatchesSerial(t *testing.T) {
	serial, _, err := runPlan(quickPlan(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := runPlan(quickPlan(8, nil))
	if err != nil {
		t.Fatal(err)
	}
	figuresEqual(t, serial, parallel)
}

// TestRunPlanSteppedClockMatches pins the execution-strategy guarantee of
// the event-driven clock: forcing every point to step cycle by cycle
// (DisableEventSkip) produces results and rendered tables identical to the
// default leaping run.
func TestRunPlanSteppedClockMatches(t *testing.T) {
	leaping, _, err := runPlan(quickPlan(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	plan := quickPlan(2, nil)
	plan.DisableEventSkip = true
	stepped, _, err := runPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	figuresEqual(t, leaping, stepped)
}

func TestRunPlanHashSeedDeterminism(t *testing.T) {
	serial, _, err := runPlan(quickPlan(1, HashSeed))
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := runPlan(quickPlan(4, HashSeed))
	if err != nil {
		t.Fatal(err)
	}
	figuresEqual(t, serial, parallel)
}

// TestRunnerSingleFigureMatchesBatch: running each spec alone reproduces
// its series from the batched run exactly (the guarantee the deleted
// RunFigure convenience used to pin).
func TestRunnerSingleFigureMatchesBatch(t *testing.T) {
	plan := quickPlan(8, nil)
	frs, _, err := runPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range plan.Specs {
		solo, _, err := runPlan(Options{
			Specs:         []FigureSpec{spec},
			WarmupCycles:  plan.WarmupCycles,
			MeasureCycles: plan.MeasureCycles,
			Seed:          plan.Seed,
			Jobs:          1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(solo[0].Series, frs[i].Series) {
			t.Errorf("%s: single-figure run and batch disagree", spec.ID)
		}
	}
}

func TestRunPlanDefaultWorkerCount(t *testing.T) {
	plan := quickPlan(0, nil) // <= 0 selects GOMAXPROCS
	frs, rep, err := runPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(frs) != 2 {
		t.Fatalf("got %d figures", len(frs))
	}
	if rep.Totals.Workers < 1 {
		t.Errorf("workers = %d", rep.Totals.Workers)
	}
}

func TestRunPlanUnknownAlgorithm(t *testing.T) {
	plan := quickPlan(4, nil)
	plan.Specs[1].Algorithms = []string{"dimension-order", "no-such-routing"}
	frs, rep, err := runPlan(plan)
	if err == nil {
		t.Fatal("unknown algorithm not reported")
	}
	if !strings.Contains(err.Error(), "no-such-routing") || !strings.Contains(err.Error(), plan.Specs[1].ID) {
		t.Errorf("error %q does not name the algorithm and figure", err)
	}
	if frs != nil || rep != nil {
		t.Error("partial results returned alongside the error")
	}
	// The same validation covers resilience specs.
	if _, err := RunSweep(context.Background(), Options{
		Resilience: []ResilienceSpec{{
			ID:          "bad",
			NewTopology: func() topology.Topology { return topology.NewMesh2D(4, 4) },
			Algorithms:  []string{"no-such-routing"},
			FaultRates:  []float64{0},
		}},
	}); err == nil || !strings.Contains(err.Error(), "no-such-routing") {
		t.Errorf("resilience validation missed: %v", err)
	}
}

func TestRunPlanProgress(t *testing.T) {
	plan := quickPlan(8, nil)
	var events []ProgressEvent
	plan.Progress = func(ev ProgressEvent) { events = append(events, ev) }
	_, rep, err := runPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, spec := range plan.Specs {
		total += len(spec.Algorithms) * len(spec.Rates)
	}
	if len(events) != total {
		t.Fatalf("got %d progress events, want %d", len(events), total)
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != total {
			t.Errorf("event %d: done/total = %d/%d", i, ev.Done, ev.Total)
		}
		if ev.Figure == "" || ev.Algorithm == "" {
			t.Errorf("event %d lacks identity: %+v", i, ev)
		}
		if ev.JobWall <= 0 || ev.Elapsed <= 0 {
			t.Errorf("event %d lacks timing: %+v", i, ev)
		}
	}
	if rep.Totals.JobsRun != total {
		t.Errorf("report counts %d jobs, want %d", rep.Totals.JobsRun, total)
	}
}

// TestRunnerStreamsPoints is the streaming contract: OnPoint fires exactly
// once per point with strictly increasing Done counters, every event
// carries its merge indices, and reassembling the stream by those indices
// reproduces the merged Outcome exactly.
func TestRunnerStreamsPoints(t *testing.T) {
	plan := quickPlan(8, nil)
	var events []PointEvent
	plan.OnPoint = func(ev PointEvent) { events = append(events, ev) }
	r, err := NewRunner(plan)
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != r.Total() {
		t.Fatalf("got %d point events, want %d", len(events), r.Total())
	}
	seen := map[string]bool{}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != r.Total() {
			t.Errorf("event %d: done/total = %d/%d", i, ev.Done, ev.Total)
		}
		if ev.Kind != PointFigure {
			t.Errorf("event %d: kind %q", i, ev.Kind)
		}
		key := ev.Figure + "/" + ev.Algorithm + "/" + string(rune('0'+ev.RateIndex))
		if seen[key] {
			t.Errorf("point %s emitted twice", key)
		}
		seen[key] = true
	}
	// Reassemble from the (unordered) stream and compare to the merge.
	rebuilt := map[string]map[string][]Result{}
	for _, fr := range out.Figures {
		rebuilt[fr.Spec.ID] = map[string][]Result{}
		for name := range fr.Series {
			rebuilt[fr.Spec.ID][name] = make([]Result, len(fr.Spec.Rates))
		}
	}
	for _, ev := range events {
		rebuilt[ev.Figure][ev.Algorithm][ev.RateIndex] = ev.Result
	}
	for _, fr := range out.Figures {
		if !reflect.DeepEqual(rebuilt[fr.Spec.ID], fr.Series) {
			t.Errorf("%s: stream does not reassemble into the merged result", fr.Spec.ID)
		}
	}
}

// TestRunnerCancellation: a cancelled context stops the run at point
// granularity with the context's error, in both the serial and the pooled
// execution paths.
func TestRunnerCancellation(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		plan := quickPlan(jobs, nil)
		ctx, cancel := context.WithCancel(context.Background())
		var fired atomic.Int32
		plan.OnPoint = func(PointEvent) {
			if fired.Add(1) == 1 {
				cancel()
			}
		}
		out, err := RunSweep(ctx, plan)
		cancel()
		if err != context.Canceled {
			t.Errorf("jobs=%d: err = %v, want context.Canceled", jobs, err)
		}
		if out != nil {
			t.Errorf("jobs=%d: cancelled run returned an outcome", jobs)
		}
		// In-flight points drain (at most one per worker after the cancel);
		// nothing close to the full run may have executed.
		if n := int(fired.Load()); n > 1+jobs {
			t.Errorf("jobs=%d: %d points ran after cancellation", jobs, n)
		}
	}
	// Cancellation before the run starts executes nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan := quickPlan(1, nil)
	ran := false
	plan.OnPoint = func(PointEvent) { ran = true }
	if _, err := RunSweep(ctx, plan); err != context.Canceled {
		t.Errorf("pre-cancelled run: err = %v", err)
	}
	if ran {
		t.Error("pre-cancelled run executed a point")
	}
}

// tickCounter counts engine Tick events — the proof that a simulation
// actually stepped. A run served entirely from cache must count zero.
type tickCounter struct {
	metrics.NopProbe
	ticks atomic.Int64
}

func (c *tickCounter) Tick(cycle int64) { c.ticks.Add(1) }

// TestRunnerCacheServesRepeatRuns: a second identical run against the same
// cache executes no simulation at all (zero engine ticks through the
// probe), reports every point as cached, and produces deeply equal results
// and byte-identical tables.
func TestRunnerCacheServesRepeatRuns(t *testing.T) {
	cache := simcache.NewStore(simcache.Options{})
	mk := func() Options {
		p := quickPlan(4, nil)
		p.Cache = cache
		return p
	}
	first, err := RunSweep(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if first.CachedPoints != 0 {
		t.Errorf("cold run reported %d cached points", first.CachedPoints)
	}

	probe := &tickCounter{}
	opts := mk()
	opts.Probe = probe
	var cachedEvents int
	opts.OnPoint = func(ev PointEvent) {
		if ev.Cached {
			cachedEvents++
		}
	}
	second, err := RunSweep(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.CachedPoints != 8 { // 2 figures x 2 algs x 2 rates
		t.Errorf("warm run cached %d points, want 8", second.CachedPoints)
	}
	if cachedEvents != 8 {
		t.Errorf("%d events marked cached, want 8", cachedEvents)
	}
	if got := probe.ticks.Load(); got != 0 {
		t.Errorf("warm run stepped the engine %d times; cache hit must skip simulation entirely", got)
	}
	figuresEqual(t, first.Figures, second.Figures)
	if st := cache.Stats(); st.Hits() != 8 || st.Puts != 8 {
		t.Errorf("cache stats = %+v", st)
	}

	// A different seed shares nothing with the warm cache.
	probe.ticks.Store(0)
	miss := mk()
	miss.Seed = 99
	miss.Probe = probe
	third, err := RunSweep(context.Background(), miss)
	if err != nil {
		t.Fatal(err)
	}
	if third.CachedPoints != 0 {
		t.Errorf("different seed hit the cache (%d points)", third.CachedPoints)
	}
	if probe.ticks.Load() == 0 {
		t.Error("cache miss did not simulate")
	}
}

// TestRunnerResilienceThroughCache extends the cache guarantee to
// resilience cells, whose fault plans are derived state the key must
// capture.
func TestRunnerResilienceThroughCache(t *testing.T) {
	cache := simcache.NewStore(simcache.Options{})
	mk := func() Options {
		return Options{
			Resilience:    []ResilienceSpec{quickResilience()},
			WarmupCycles:  400,
			MeasureCycles: 1200,
			Seed:          3,
			Jobs:          2,
			Cache:         cache,
		}
	}
	first, err := RunSweep(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	probe := &tickCounter{}
	opts := mk()
	opts.Probe = probe
	second, err := RunSweep(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.CachedPoints != 6 { // 2 algs x 3 fault rates
		t.Errorf("cached %d resilience cells, want 6", second.CachedPoints)
	}
	if probe.ticks.Load() != 0 {
		t.Error("warm resilience run stepped the engine")
	}
	if !reflect.DeepEqual(first.Resilience[0].Series, second.Resilience[0].Series) {
		t.Error("cached resilience series diverge")
	}
	if first.Resilience[0].Table() != second.Resilience[0].Table() {
		t.Error("cached resilience tables diverge")
	}
}

func TestPairedSeedMatchesSweepDerivation(t *testing.T) {
	// The archived tables under docs/ were produced by Sweep's
	// base + i*7919; PairedSeed must reproduce it exactly.
	for i := 0; i < 12; i++ {
		if got, want := PairedSeed(1, "figure13", "xy", i), int64(1+i*7919); got != want {
			t.Fatalf("PairedSeed(1, _, _, %d) = %d, want %d", i, got, want)
		}
	}
	if PairedSeed(5, "figure13", "xy", 3) != PairedSeed(5, "figure16", "e-cube", 3) {
		t.Error("PairedSeed must be shared across figures and algorithms")
	}
}

func TestHashSeedIndependence(t *testing.T) {
	base := HashSeed(1, "figure13", "xy", 0)
	for _, other := range []int64{
		HashSeed(2, "figure13", "xy", 0),
		HashSeed(1, "figure14", "xy", 0),
		HashSeed(1, "figure13", "west-first", 0),
		HashSeed(1, "figure13", "xy", 1),
	} {
		if other == base {
			t.Errorf("HashSeed collision with %d", other)
		}
	}
	if HashSeed(1, "figure13", "xy", 0) != base {
		t.Error("HashSeed is not deterministic")
	}
}

// TestRunnerReuseMatchesRun: a Runner worker reuses one network per spec,
// resetting it between points, and its generation state with it. Every
// point of a faulted CompareModes sweep mixed with figure sweeps on two
// topologies — so that workers switch topology, fault mode and algorithm
// from point to point — must equal sim.Run of that point's configuration
// on freshly built everything, at one worker and at two.
func TestRunnerReuseMatchesRun(t *testing.T) {
	f13, _ := FigureByID("figure13")
	f13.Rates = []float64{0.02, 0.06}
	f13.Algorithms = []string{"xy", "negative-first"}
	f16, _ := FigureByID("figure16")
	f16.Rates = []float64{0.03, 0.09}
	f16.Algorithms = f16.Algorithms[:2]
	res := quickResilience()
	res.FaultRates = []float64{0, 2e-5, 1e-4}
	for _, jobs := range []int{1, 2} {
		r, err := NewRunner(Options{
			Specs:        []FigureSpec{f13, f16},
			Resilience:   []ResilienceSpec{res},
			CompareModes: true,
			WarmupCycles: 300, MeasureCycles: 900,
			Seed: 4, Jobs: jobs,
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		faulted := false
		for _, u := range r.units {
			cfg, ev := r.unitConfig(u, new(worker).world(r, u))
			var got Result
			if u.kind == PointFigure {
				got = out.Figures[u.spec].Series[ev.Algorithm][u.rate]
			} else {
				got = out.Compares[u.spec].Series[ev.Mode][ev.Algorithm][u.rate]
				faulted = faulted || got.FaultEvents > 0 && (got.Aborted > 0 || got.MaskedFaults > 0)
			}
			if want := Run(cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("jobs=%d %s %s/%s rate %d: runner\n  %+v\nRun\n  %+v", jobs, ev.Figure, ev.Mode, ev.Algorithm, u.rate, got, want)
			}
		}
		if !faulted {
			t.Fatalf("jobs=%d: no point aborted or masked a fault; the comparison would be vacuous", jobs)
		}
	}
}
