package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/network"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// SeedFunc derives the RNG seed of one (figure, algorithm, rate) job from
// the options' base seed. A derivation must depend only on the job's
// identity — never on worker count or scheduling order — which is what
// makes a parallel sweep bit-identical to a serial one.
type SeedFunc func(base int64, figureID, algorithm string, rateIdx int) int64

// PairedSeed is the default derivation: base + rateIdx*7919, shared by
// every algorithm and figure at the same rate index. Sharing the random
// stream across the algorithms being compared is the classic
// common-random-numbers variance reduction — each curve of a figure sees
// the same arrival processes — and it reproduces Sweep's historical
// seeding, so the archived tables under docs/ regenerate byte-identically.
func PairedSeed(base int64, _, _ string, rateIdx int) int64 {
	return base + int64(rateIdx)*7919
}

// HashSeed derives a statistically independent stream per job by hashing
// the base seed, figure ID, algorithm name and rate index with FNV-1a.
// Use it when jobs must not share random streams, e.g. when averaging
// replicated runs of the same point.
func HashSeed(base int64, figureID, algorithm string, rateIdx int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(base))
	h.Write(buf[:])
	h.Write([]byte(figureID))
	h.Write([]byte{0})
	h.Write([]byte(algorithm))
	h.Write([]byte{0})
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(rateIdx)))
	h.Write(buf[:])
	return int64(h.Sum64())
}

// ProgressEvent reports one completed job to the Progress callback.
type ProgressEvent struct {
	// Done and Total count jobs across the whole run.
	Done, Total int
	// Figure, Algorithm and Rate identify the job that just finished.
	Figure    string
	Algorithm string
	Rate      float64
	// JobWall is the job's own wall-clock time; Elapsed is the time since
	// the run started.
	JobWall, Elapsed time.Duration
}

// PointKind distinguishes the three kinds of points a Runner emits.
type PointKind string

const (
	// PointFigure is one (figure, algorithm, injection rate) sweep point.
	PointFigure PointKind = "figure"
	// PointResilience is one (resilience figure, algorithm, fault rate)
	// cell with recovery on.
	PointResilience PointKind = "resilience"
	// PointCompare is a resilience cell run under one of the
	// masking-versus-recovery modes (Mode names which).
	PointCompare PointKind = "resilience-compare"
)

// PointEvent is one completed simulation point, emitted through
// Options.OnPoint as workers finish — in completion order, which depends
// on scheduling. The indices identify where the point lands in the merged
// output, so consumers can reassemble deterministic results from a
// nondeterministic stream exactly as the Runner itself does. The JSON
// encoding is the wire form turnserved streams over SSE.
type PointEvent struct {
	Kind   PointKind `json:"kind"`
	Figure string    `json:"figure"`
	// Mode is the resilience-compare mode name; empty for other kinds.
	Mode      string `json:"mode,omitempty"`
	Algorithm string `json:"algorithm"`
	// RateIndex indexes Rates (figures) or FaultRates (resilience); Rate
	// is the value at that index.
	RateIndex int     `json:"rate_index"`
	Rate      float64 `json:"rate"`
	// Seed is the derived per-point seed (for resilience points, the cell
	// seed the fault plan's seed is also derived from).
	Seed int64 `json:"seed"`
	// Cached reports the point was served by Options.Cache without
	// simulating.
	Cached bool `json:"cached,omitempty"`
	// WallMillis is the point's wall-clock cost (microseconds-scale for
	// cache hits).
	WallMillis float64 `json:"wall_ms"`
	// Done and Total count completed points across the whole run at the
	// moment this event was emitted; events arrive with Done strictly
	// increasing 1..Total.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Result is the point's full simulation result.
	Result Result `json:"result"`
}

// Options describes one Runner execution: which experiments to run, the
// shared run windows and seeding, the execution budget, and the streaming,
// caching and instrumentation hooks. The zero value of every optional
// field selects the historical behavior, so the archived tables regenerate
// byte-identically.
type Options struct {
	// Specs are the figure sweeps to run, in output order.
	Specs []FigureSpec
	// Resilience are the resilience sweeps to run, in output order, after
	// the figures. Each cell runs with deadlock recovery on and a fault
	// plan derived from the cell's rate index (see ResilienceSpec).
	Resilience []ResilienceSpec
	// CompareModes runs every Resilience spec once per ResilienceModes()
	// configuration (recovery / masking / recovery+masking) instead of
	// recovery-only, producing Outcome.Compares instead of
	// Outcome.Resilience.
	CompareModes bool
	// WarmupCycles and MeasureCycles set the per-run windows; zero selects
	// the Run defaults (20000/40000).
	WarmupCycles, MeasureCycles int64
	// Seed is the base seed every point derives its own from.
	Seed int64
	// Jobs is the worker count. Values <= 0 select runtime.GOMAXPROCS(0);
	// 1 runs the points serially in the calling goroutine.
	Jobs int
	// DisableEventSkip steps every point cycle by cycle instead of leaping
	// the clock over provably empty ones (see RunParams.DisableEventSkip).
	// Results are bit-identical either way.
	DisableEventSkip bool
	// SeedFn derives per-point seeds for figure sweeps; nil selects
	// PairedSeed. Resilience cells always use the paired derivation, which
	// shares fault histories across the algorithms and modes being
	// compared.
	SeedFn SeedFunc
	// Metrics attaches a metrics collector to every point, so each
	// Result carries a Snapshot (channel utilization, latency percentiles;
	// see docs/metrics.md). The Result scalars and table output are
	// identical with or without it.
	Metrics bool
	// FaultPlan injects faults into every figure point (see fault.Plan).
	// The plan's Seed is salted with each point's derived seed, so fault
	// histories are a pure function of point identity (bit-identical for
	// any worker count) and, under PairedSeed, shared by the algorithms
	// being compared at the same rate index. Resilience cells build their
	// own fault plans from their spec and ignore this field.
	FaultPlan fault.Plan
	// Recovery enables deadlock recovery in every figure point (see
	// fault.Recovery). Resilience cells manage recovery themselves.
	Recovery fault.Recovery
	// FaultRouting enables in-network fault masking in every figure point
	// (see fault.RoutingPolicy); ignored when FaultPlan is empty.
	// Resilience cells take their policy from the compare mode.
	FaultRouting fault.RoutingPolicy
	// Progress, when non-nil, is called after every completed point.
	// Calls are serialized.
	Progress func(ProgressEvent)
	// OnPoint, when non-nil, receives every completed point as workers
	// finish (completion order). Calls are serialized with Progress; the
	// callback must not block for long — it stalls the worker that
	// completed the point — and must not re-enter the Runner.
	OnPoint func(PointEvent)
	// Cache, when non-nil, is consulted before and updated after every
	// point (see RunCached). A hit skips the simulation entirely.
	Cache Cache
	// Probe, when non-nil, receives every simulation event of every point
	// actually simulated (see metrics.Probe). Cached points emit no
	// events — counting Tick events is how tests assert a run was served
	// from cache. Probes observe but never perturb, so Probe does not
	// enter cache keys.
	Probe metrics.Probe
}

// unit indexes one point of a run. mode is -1 except for compare points.
type unit struct {
	kind            PointKind
	spec, mode, alg int
	rate            int
}

// Runner is the single execution entry point of the sim package: it
// flattens the Options' figures and resilience sweeps into independent
// points, fans them out over a bounded worker pool under a
// context.Context, streams each point as it completes, and merges the
// results deterministically. Every worker builds its own topology,
// algorithms, pattern and network per spec and resets the network for each
// point (see worker), and every point's seed is a pure function of its
// identity, so the merged results — and the schema-v4 Report — are
// bit-identical for any worker count, cache state or completion order.
type Runner struct {
	opts   Options
	seedFn SeedFunc
	modes  []ResilienceMode
	units  []unit
}

// NewRunner validates the options and plans the run. An unknown algorithm
// name in any spec is reported here, before any simulation runs.
func NewRunner(opts Options) (*Runner, error) {
	r := &Runner{opts: opts, seedFn: opts.SeedFn}
	if r.seedFn == nil {
		r.seedFn = PairedSeed
	}
	if opts.CompareModes {
		r.modes = ResilienceModes()
	}
	// Fail fast: resolve every algorithm against its topology up front so
	// a bad name is one deterministic error, not a race of partial work.
	for si, spec := range opts.Specs {
		topo := spec.NewTopology()
		for ai, name := range spec.Algorithms {
			if _, err := routing.New(name, topo); err != nil {
				return nil, fmt.Errorf("sim: figure %s: %w", spec.ID, err)
			}
			for ri := range spec.Rates {
				r.units = append(r.units, unit{PointFigure, si, -1, ai, ri})
			}
		}
	}
	for si, spec := range opts.Resilience {
		topo := spec.NewTopology()
		for _, name := range spec.Algorithms {
			if _, err := routing.New(name, topo); err != nil {
				return nil, fmt.Errorf("sim: resilience %s: %w", spec.ID, err)
			}
		}
		if opts.CompareModes {
			for mi := range r.modes {
				for ai := range spec.Algorithms {
					for ri := range spec.FaultRates {
						r.units = append(r.units, unit{PointCompare, si, mi, ai, ri})
					}
				}
			}
		} else {
			for ai := range spec.Algorithms {
				for ri := range spec.FaultRates {
					r.units = append(r.units, unit{PointResilience, si, -1, ai, ri})
				}
			}
		}
	}
	return r, nil
}

// Total is the number of points the run will execute.
func (r *Runner) Total() int { return len(r.units) }

// Outcome is a completed run's merged output.
type Outcome struct {
	// Figures holds one FigureResult per Options.Specs entry, in order.
	Figures []FigureResult
	// Resilience holds one ResilienceResult per Options.Resilience entry
	// when CompareModes is off; Compares holds the per-mode comparison
	// when it is on.
	Resilience []ResilienceResult
	Compares   []ResilienceCompareResult
	// Report is the schema-v4 record of the figure sweeps — byte-identical
	// to the historical batch API's output for the same options. Nil when
	// Options.Specs is empty. Its totals count every point of the run,
	// including resilience cells.
	Report *Report
	// CachedPoints counts points served by Options.Cache.
	CachedPoints int
}

// worker is one sweep worker's reusable state. Every point it runs from a
// spec shares the spec's topology, pattern and routing algorithms, built
// the first time the worker meets the spec, and one network, which Reset
// returns to exactly the state New would build for the point; the message
// generation's RNG, arrival wheel and latency sample are reused the same
// way (see generation). A point therefore pays for its cycles, not for
// building the world again. The state lives and dies with Runner.Run:
// nothing outlives the run, and nothing is shared between workers.
type worker struct {
	figures, resilience []*world
	gen                 generation
}

// world is one spec's topology, pattern, algorithms and network, as one
// worker built them.
type world struct {
	topo    topology.Topology
	pattern traffic.Pattern
	algs    []routing.Algorithm // by algorithm index, built on first use
	net     *network.Network
}

// world returns the worker's world for the unit's spec, building it the
// first time.
func (w *worker) world(r *Runner, u unit) *world {
	worlds, n := &w.figures, len(r.opts.Specs)
	if u.kind != PointFigure {
		worlds, n = &w.resilience, len(r.opts.Resilience)
	}
	if *worlds == nil {
		*worlds = make([]*world, n)
	}
	if (*worlds)[u.spec] == nil {
		wd := new(world)
		if u.kind == PointFigure {
			spec := r.opts.Specs[u.spec]
			wd.topo = spec.NewTopology()
			wd.pattern = spec.NewPattern(wd.topo)
			wd.algs = make([]routing.Algorithm, len(spec.Algorithms))
		} else {
			spec := r.opts.Resilience[u.spec]
			wd.topo = spec.NewTopology()
			wd.pattern = spec.NewPattern(wd.topo)
			wd.algs = make([]routing.Algorithm, len(spec.Algorithms))
		}
		(*worlds)[u.spec] = wd
	}
	return (*worlds)[u.spec]
}

// alg returns the world's algorithm at index i, building it the first
// time.
func (wd *world) alg(i int, name string) (routing.Algorithm, error) {
	if wd.algs[i] == nil {
		alg, err := routing.New(name, wd.topo)
		if err != nil {
			return nil, err
		}
		wd.algs[i] = alg
	}
	return wd.algs[i], nil
}

// run is Run on the world's network, reset for the point, with the
// worker's generation state.
func (w *worker) run(wd *world, cfg Config) Result {
	cfg = cfg.withDefaults()
	probe, coll := cfg.RunParams.instrument(wd.topo)
	if nc := cfg.networkConfig(probe); wd.net == nil {
		wd.net = network.New(nc)
	} else {
		wd.net.Reset(nc)
	}
	return measure(cfg.RunParams, cfg.Routing.Name(), wd.topo, wd.net, coll, &w.gen)
}

// unitConfig builds the simulation Config of one point, on the worker's
// world for its spec, and the identity part of its PointEvent. The
// derivations here are load-bearing: figure seeds come from
// SeedFn(base, figureID, algorithm, rateIdx) with the fault plan's seed
// salted by the point seed, and resilience cell seeds are
// base + rateIdx*7919 with the fault seed one above — exactly the
// historical derivations, which the archived tables and the cache's
// soundness both depend on.
func (r *Runner) unitConfig(u unit, wd *world) (Config, PointEvent) {
	opts := r.opts
	switch u.kind {
	case PointFigure:
		spec := opts.Specs[u.spec]
		name := spec.Algorithms[u.alg]
		alg, err := wd.alg(u.alg, name)
		if err != nil {
			// Validated in NewRunner; a construction that fails only here
			// would be nondeterministic, so treat it as a programming error.
			panic(fmt.Sprintf("sim: figure %s: %v", spec.ID, err))
		}
		seed := r.seedFn(opts.Seed, spec.ID, name, u.rate)
		fp := opts.FaultPlan
		if !fp.Empty() {
			fp.Seed += seed
		}
		cfg := Config{
			Routing: alg,
			RunParams: RunParams{
				Pattern:          wd.pattern,
				InjectionRate:    spec.Rates[u.rate],
				WarmupCycles:     opts.WarmupCycles,
				MeasureCycles:    opts.MeasureCycles,
				Seed:             seed,
				Metrics:          opts.Metrics,
				FaultPlan:        fp,
				Recovery:         opts.Recovery,
				FaultRouting:     opts.FaultRouting,
				Probe:            opts.Probe,
				DisableEventSkip: opts.DisableEventSkip,
			},
		}
		return cfg, PointEvent{
			Kind: PointFigure, Figure: spec.ID, Algorithm: name,
			RateIndex: u.rate, Rate: spec.Rates[u.rate], Seed: seed,
		}
	case PointResilience, PointCompare:
		spec := opts.Resilience[u.spec]
		name := spec.Algorithms[u.alg]
		alg, err := wd.alg(u.alg, name)
		if err != nil {
			panic(fmt.Sprintf("sim: resilience %s: %v", spec.ID, err))
		}
		cellSeed := opts.Seed + int64(u.rate)*7919
		cfg := Config{
			Routing: alg,
			RunParams: RunParams{
				Pattern:       wd.pattern,
				InjectionRate: spec.InjectionRate,
				WarmupCycles:  opts.WarmupCycles,
				MeasureCycles: opts.MeasureCycles,
				Seed:          cellSeed,
				Metrics:       opts.Metrics,
				FaultPlan: fault.Plan{
					Rate:   spec.FaultRates[u.rate],
					Repair: spec.RepairDelay,
					Seed:   cellSeed + 1,
				},
				Recovery:         fault.Recovery{Enabled: true},
				Probe:            opts.Probe,
				DisableEventSkip: opts.DisableEventSkip,
			},
		}
		ev := PointEvent{
			Kind: u.kind, Figure: spec.ID, Algorithm: name,
			RateIndex: u.rate, Rate: spec.FaultRates[u.rate], Seed: cellSeed,
		}
		if u.kind == PointCompare {
			mode := r.modes[u.mode]
			ev.Mode = mode.Name
			cfg.Recovery = fault.Recovery{Enabled: mode.Recovery}
			cfg.FaultRouting = mode.FaultRouting
			if !mode.Recovery {
				// Without recovery, a packet with every permitted path dead
				// stalls forever; disable the fail-stop watchdog so the run
				// measures that honestly instead of aborting.
				cfg.WatchdogCycles = -1
			}
		}
		return cfg, ev
	}
	panic(fmt.Sprintf("sim: unknown point kind %q", u.kind))
}

// Run executes every point over the worker pool and assembles the merged
// Outcome. Cancelling the context stops the run at point granularity:
// no new point starts after cancellation, in-flight points finish (their
// OnPoint events still fire), and Run returns the context's error with a
// nil Outcome. Already-emitted PointEvents remain valid — a streaming
// consumer keeps everything completed before the cancel.
func (r *Runner) Run(ctx context.Context) (*Outcome, error) {
	opts := r.opts
	units := r.units
	workers := opts.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) && len(units) > 0 {
		workers = len(units)
	}

	// Indexed result storage: assembly order never depends on completion
	// order.
	figRes := make([][][]Result, len(opts.Specs))
	figWall := make([][][]time.Duration, len(opts.Specs))
	figSeed := make([][][]int64, len(opts.Specs))
	for si, spec := range opts.Specs {
		figRes[si] = make([][]Result, len(spec.Algorithms))
		figWall[si] = make([][]time.Duration, len(spec.Algorithms))
		figSeed[si] = make([][]int64, len(spec.Algorithms))
		for ai := range spec.Algorithms {
			figRes[si][ai] = make([]Result, len(spec.Rates))
			figWall[si][ai] = make([]time.Duration, len(spec.Rates))
			figSeed[si][ai] = make([]int64, len(spec.Rates))
		}
	}
	resRes := make([][][]Result, len(opts.Resilience))
	cmpRes := make([][][][]Result, len(opts.Resilience))
	for si, spec := range opts.Resilience {
		if opts.CompareModes {
			cmpRes[si] = make([][][]Result, len(r.modes))
			for mi := range r.modes {
				cmpRes[si][mi] = make([][]Result, len(spec.Algorithms))
				for ai := range spec.Algorithms {
					cmpRes[si][mi][ai] = make([]Result, len(spec.FaultRates))
				}
			}
		} else {
			resRes[si] = make([][]Result, len(spec.Algorithms))
			for ai := range spec.Algorithms {
				resRes[si][ai] = make([]Result, len(spec.FaultRates))
			}
		}
	}

	start := time.Now()
	var (
		mu     sync.Mutex
		done   int
		cached int
	)
	runOne := func(w *worker, u unit) {
		wd := w.world(r, u)
		cfg, ev := r.unitConfig(u, wd)
		jobStart := time.Now()
		res, hit := runCached(cfg, opts.Cache, func(cfg Config) Result { return w.run(wd, cfg) })
		wall := time.Since(jobStart)
		ev.Result = res
		ev.Cached = hit
		ev.WallMillis = float64(wall) / float64(time.Millisecond)

		mu.Lock()
		switch u.kind {
		case PointFigure:
			figRes[u.spec][u.alg][u.rate] = res
			figWall[u.spec][u.alg][u.rate] = wall
			figSeed[u.spec][u.alg][u.rate] = ev.Seed
		case PointResilience:
			resRes[u.spec][u.alg][u.rate] = res
		case PointCompare:
			cmpRes[u.spec][u.mode][u.alg][u.rate] = res
		}
		done++
		if hit {
			cached++
		}
		ev.Done, ev.Total = done, len(units)
		if opts.Progress != nil {
			opts.Progress(ProgressEvent{
				Done: done, Total: len(units),
				Figure: ev.Figure, Algorithm: ev.Algorithm, Rate: ev.Rate,
				JobWall: wall, Elapsed: time.Since(start),
			})
		}
		if opts.OnPoint != nil {
			opts.OnPoint(ev)
		}
		mu.Unlock()
	}

	if workers <= 1 {
		// The serial degenerate case: same storage, same seeds, same
		// event protocol, no goroutines. Cancellation is checked between
		// points, matching the pool's point granularity.
		w := new(worker)
		for _, u := range units {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			runOne(w, u)
		}
	} else {
		ch := make(chan unit)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := new(worker)
				for u := range ch {
					runOne(w, u)
				}
			}()
		}
	dispatch:
		for _, u := range units {
			select {
			case ch <- u:
			case <-ctx.Done():
				break dispatch
			}
		}
		close(ch)
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	totalWall := time.Since(start)

	out := &Outcome{CachedPoints: cached}
	for si, spec := range opts.Specs {
		fr := FigureResult{Spec: spec, Series: make(map[string][]Result, len(spec.Algorithms))}
		for ai, name := range spec.Algorithms {
			fr.Series[name] = figRes[si][ai]
		}
		out.Figures = append(out.Figures, fr)
	}
	if len(opts.Specs) > 0 {
		out.Report = buildReport(opts, workers, len(units), totalWall, figRes, figWall, figSeed)
	}
	for si, spec := range opts.Resilience {
		if opts.CompareModes {
			rc := ResilienceCompareResult{
				Spec:   spec,
				Modes:  r.modes,
				Series: make(map[string]map[string][]Result, len(r.modes)),
			}
			for mi, mode := range r.modes {
				byAlg := make(map[string][]Result, len(spec.Algorithms))
				for ai, name := range spec.Algorithms {
					byAlg[name] = cmpRes[si][mi][ai]
				}
				rc.Series[mode.Name] = byAlg
			}
			out.Compares = append(out.Compares, rc)
		} else {
			rr := ResilienceResult{Spec: spec, Series: make(map[string][]Result, len(spec.Algorithms))}
			for ai, name := range spec.Algorithms {
				rr.Series[name] = resRes[si][ai]
			}
			out.Resilience = append(out.Resilience, rr)
		}
	}
	return out, nil
}

// RunSweep is the one-call convenience over NewRunner + Run.
func RunSweep(ctx context.Context, opts Options) (*Outcome, error) {
	r, err := NewRunner(opts)
	if err != nil {
		return nil, err
	}
	return r.Run(ctx)
}
