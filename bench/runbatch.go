package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"turnmodel/internal/sim"
)

const (
	// setupRepeats is how often a run sets up; setup_s is the median.
	setupRepeats = 5
	// minRounds keeps every batch run above 100 point samples, so that the
	// 90th percentile of point times has ten samples beyond it.
	minRounds = 3
)

// warmupWindows sizes the pass that ends set-up: every configuration of
// the workload runs briefly so that lazy initialisation, the heap and the
// processor's caches are warm before the clock starts.
var warmupWindows = windows{Warmup: 200, Measure: 600}

// runConfig is the resolved input of one run.
type runConfig struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Full     bool    `json:"full"`
	// Root is the checkout, RunDir where this run's config/log/event/result
	// artefacts go.
	Root   string `json:"root"`
	RunDir string `json:"run_dir"`
}

// benchDir is the benchmark's own directory in the checkout.
func (c runConfig) benchDir() string { return filepath.Join(c.Root, "bench") }

// peakRSSMB is the peak resident set (VmHWM) of a live process, in MB. It
// is read from /proc rather than taken from getrusage: ru_maxrss survives
// exec, so under "go run" it would report the go command's own footprint
// whenever that is the larger.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// batchSetup is what set-up produces: one plan per sub-seed (a single one
// with -full), their golden digests (seed 1 at bench windows only) and the
// time each repeat took.
type batchSetup struct {
	Win    windows
	Seeds  []int64
	Plans  [][]pointSpec
	Golden [][]string
	Cycles int64 // simulated cycles of one sweep
	TimesS []float64
}

func setupBatch(cfg runConfig, w batchWorkload) (*batchSetup, error) {
	s := &batchSetup{Win: w.Bench}
	n := subSeeds
	if cfg.Full {
		// The archived tables are one sweep at the seed itself.
		s.Win, n = w.Full, 1
	}
	for k := 0; k < n; k++ {
		s.Seeds = append(s.Seeds, subSeed(cfg.Seed, k))
	}
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		s.Plans = nil
		for _, seed := range s.Seeds {
			s.Plans = append(s.Plans, w.plan(seed, s.Win))
		}
		if cfg.Seed == goldenSeed && !cfg.Full {
			golden, err := loadGolden(cfg.benchDir(), w, s.Plans)
			if err != nil {
				return nil, err
			}
			s.Golden = golden
		}
		if _, _, _, err := w.run(cfg.Seed, warmupWindows); err != nil {
			return nil, err
		}
		s.TimesS = append(s.TimesS, time.Since(start).Seconds())
	}
	for _, p := range s.Plans[0] {
		s.Cycles += p.cycles()
	}
	return s, nil
}

// driveAll runs every point of the plan through the benchmark's own
// layer-by-layer driver, dispatching in plan order over `jobs` workers as
// the runner does. It returns the results and, when traced, the traces.
func driveAll(plan []pointSpec, jobs int, traced bool) ([]sim.Result, []pointTrace, error) {
	results := make([]sim.Result, len(plan))
	traces := make([]pointTrace, len(plan))
	errs := make([]error, len(plan))
	one := func(i int) {
		var tr *pointTrace
		if traced {
			tr = &traces[i]
		}
		results[i], errs[i] = drivePoint(plan[i], tr)
	}
	if jobs <= 1 {
		for i := range plan {
			one(i)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < jobs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					one(i)
				}
			}()
		}
		for i := range plan {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return results, traces, nil
}

// checkReference compares a -full round's rendered table with the rows
// archived under docs/.
func checkReference(cfg runConfig, w batchWorkload, table string, res *runResult) {
	if !cfg.Full || w.RefFigure == "" {
		return
	}
	if cfg.Seed != goldenSeed {
		res.checkf("reference: docs/results-paper-figures.txt archives seed %d only; not compared", goldenSeed)
		return
	}
	bad, total, err := referenceMismatches(cfg.Root, w.RefFigure, table)
	if err != nil {
		res.checkf("reference: %v", err)
		res.Failed++
		return
	}
	res.checkf("reference mismatch: %d of %d points (docs/results-paper-figures.txt, %s)", bad, total, w.RefFigure)
	res.Failed += bad
}

// roundsDone reports whether a run has measured enough: one round with
// -full, otherwise at least minRounds and the run's seconds.
func roundsDone(cfg runConfig, round int, started time.Time) bool {
	if cfg.Full {
		return round == 1
	}
	return round >= minRounds && time.Since(started).Seconds() >= cfg.Seconds
}

// runBatchUntraced measures the end-to-end metrics of a batch workload:
// whole sweeps through the program's own entry point, repeated for the
// run's seconds over the run's sub-seeds, with the median round deciding
// the speed.
func runBatchUntraced(ctx context.Context, cfg runConfig, w batchWorkload) (*runResult, error) {
	res := newRunResult(cfg)
	s, err := setupBatch(cfg, w)
	if err != nil {
		return nil, err
	}
	var (
		speeds, pointMs []float64
		firstTable      string
		points          = len(s.Plans[0])
		// reference[k] is what every round of sub-seed k must reproduce:
		// the golden, or else that sub-seed's first round.
		reference = make([][]string, len(s.Seeds))
		repeated  int
	)
	copy(reference, s.Golden)
	started := time.Now()
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if roundsDone(cfg, round, started) {
			break
		}
		k := round % len(s.Seeds)
		start := time.Now()
		results, walls, table, err := w.run(s.Seeds[k], s.Win)
		wall := time.Since(start).Seconds()
		if err != nil {
			return nil, err
		}
		speeds = append(speeds, float64(s.Cycles)/wall)
		pointMs = append(pointMs, walls...)
		res.Attempted += points
		if round == 0 {
			firstTable = table
		}
		if reference[k] == nil {
			reference[k] = digests(results)
			continue
		}
		repeated += points
		res.Failed += countMismatches(digests(results), reference[k])
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}

	if s.Golden != nil {
		res.checkf("golden mismatch: %d of %d points over %d rounds (bench/golden/%s.json)", res.Failed, res.Attempted, len(speeds), w.Name)
	} else {
		// No golden for this seed or size: the first round is checked
		// against the benchmark's own driver, and every later round of a
		// sub-seed against that sub-seed's first.
		if repeated > 0 {
			res.checkf("round-to-round mismatch: %d of %d points in repeated rounds", res.Failed, repeated)
		}
		own, _, err := driveAll(s.Plans[0], w.Jobs, false)
		if err != nil {
			return nil, err
		}
		bad := countMismatches(digests(own), reference[0])
		res.checkf("self-consistency mismatch: %d of %d points (sim entry point vs the benchmark's layer-by-layer driver, seed %d)", bad, points, s.Seeds[0])
		res.Failed += bad
	}
	checkReference(cfg, w, firstTable, res)

	res.Metrics["setup_s"] = median(s.TimesS)
	res.Metrics["sim_cycles_per_s"] = median(speeds)
	res.Metrics["max_rss_mb"] = rss
	res.Metrics["job_p50_ms"], _ = percentile(pointMs, 50)
	p90, beyond := percentile(pointMs, 90)
	res.Metrics["job_p90_ms"] = p90
	res.Samples["setup_s"] = len(s.TimesS)
	res.Samples["sim_cycles_per_s"] = len(speeds)
	res.Samples["job_p50_ms"] = len(pointMs)
	res.Samples["job_p90_ms"] = len(pointMs)
	if beyond < minBeyond {
		res.checkf("job_p90_ms has only %d samples beyond it (want %d)", beyond, minBeyond)
	}
	res.checkf("%d simulated cycles per round at windows %d/%d, Jobs=%d, seeds %v; rounds ran at %s cycles/s", s.Cycles, s.Win.Warmup, s.Win.Measure, w.Jobs, s.Seeds, formatSpeeds(speeds))
	res.Correct = res.Failed == 0
	return res, nil
}

func formatSpeeds(speeds []float64) string {
	var b strings.Builder
	for i, v := range speeds {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.0f", v)
	}
	return b.String()
}

// runBatchTraced produces the per-layer ledger of a batch workload. It
// alternates untraced rounds (the sim entry point) with traced rounds (the
// benchmark's own driver with a span around each layer call), so that the
// two produce the overhead of tracing and check each other's results.
func runBatchTraced(ctx context.Context, cfg runConfig, w batchWorkload) (*runResult, error) {
	res := newRunResult(cfg)
	s, err := setupBatch(cfg, w)
	if err != nil {
		return nil, err
	}
	var (
		plainWalls, tracedWalls, pointMs, idle []float64
		traces                                 []pointTrace
		reference                              = make([][]string, len(s.Seeds))
		refResults                             []sim.Result
		allocs, allocBytes                     uint64
		goldenBad                              int
		points                                 = len(s.Plans[0])
	)
	started := time.Now()
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if roundsDone(cfg, round, started) {
			break
		}
		k := round % len(s.Seeds)
		var before, after runtime.MemStats
		if round == 0 {
			runtime.ReadMemStats(&before)
		}
		start := time.Now()
		results, walls, _, err := w.run(s.Seeds[k], s.Win)
		wall := time.Since(start).Seconds()
		if err != nil {
			return nil, err
		}
		if round == 0 {
			runtime.ReadMemStats(&after)
			allocs, allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
			refResults = results
		}
		if reference[k] == nil {
			reference[k] = digests(results)
			if s.Golden != nil {
				goldenBad += countMismatches(reference[k], s.Golden[k])
			}
		} else {
			res.Failed += countMismatches(digests(results), reference[k])
		}
		res.Attempted += points
		plainWalls = append(plainWalls, wall)
		pointMs = append(pointMs, walls...)
		idle = append(idle, 1-sum(walls)/1000/(float64(w.Jobs)*wall))

		start = time.Now()
		own, tr, err := driveAll(s.Plans[k], w.Jobs, true)
		if err != nil {
			return nil, err
		}
		tracedWalls = append(tracedWalls, time.Since(start).Seconds())
		traces = append(traces, tr...)
		res.Attempted += points
		res.Failed += countMismatches(digests(own), reference[k])
	}
	if s.Golden != nil {
		res.checkf("golden mismatch: %d of %d points (bench/golden/%s.json)", goldenBad, points*len(s.Seeds), w.Name)
	}
	rounds := len(tracedWalls)
	res.checkf("self-consistency mismatch: %d of %d points over %d untraced and %d traced rounds", res.Failed, res.Attempted, rounds, rounds)
	res.Failed += goldenBad

	m := res.Metrics
	total := sumSpans(traces)
	var cycles, skipped, flits int64
	for i := range traces {
		cycles += traces[i].Cycles
		skipped += traces[i].CyclesSkipped
		flits += traces[i].Flits
	}
	perCall := func(l layer, scale float64) float64 {
		if total[l].Count == 0 {
			return 0
		}
		return total[l].total() / float64(total[l].Count) / scale
	}
	perRoundS := func(ns float64) float64 { return ns / 1e9 / float64(rounds) }
	eng := w.EnginePkg
	m["topology.build_us"] = perCall(lTopologyBuild, 1e3)
	m["routing.build_us"] = perCall(lRoutingBuild, 1e3)
	m[eng+".build_us"] = perCall(lEngineBuild, 1e3)
	m["traffic.dest_ns"] = perCall(lDest, 1)
	m["sim.generate_s"] = perRoundS(total[lGenerate].total() - total[lDest].total() - total[lEnqueue].total())
	m[eng+".step_ns"] = perCall(lStep, 1)
	m[eng+".steps"] = float64(total[lStep].Count) / float64(rounds)
	m[eng+".busy_s"] = perRoundS(total[lStep].total())
	if flits > 0 {
		m[eng+".ns_per_flit"] = total[lStep].total() / float64(flits)
	}
	if eng == "network" {
		m["network.enqueue_ns"] = perCall(lEnqueue, 1)
		m["network.take_delivered_ns"] = perCall(lTakeDelivered, 1)
		m["network.cycles_skipped_frac"] = float64(skipped) / float64(cycles)
	}
	m["stats.busy_s"] = perRoundS(total[lStats].total())
	children := 0.0
	for l := layer(1); l < numLayers; l++ {
		if layerParent[l] == lPoint {
			children += total[l].total()
		}
	}
	m["sim.self_s"] = perRoundS(total[lPoint].total() - children)
	m["sim.points"] = float64(points)
	m["sim.point_ms_p50"], _ = percentile(pointMs, 50)
	m["sim.point_ms_max"], _ = percentile(pointMs, 100)
	res.Samples["sim.point_ms_p50"] = len(pointMs)
	m["sim.worker_idle_frac"] = median(idle)
	m["sim.allocs_per_point"] = float64(allocs) / float64(points)
	m["sim.alloc_kb_per_point"] = float64(allocBytes) / 1024 / float64(points)
	// Each traced round is compared with the untraced round of the same
	// sub-seed that ran just before it, so that a slow stretch of the
	// machine hits both sides of a ratio; the median ratio is reported.
	ratios := make([]float64, rounds)
	for r := range ratios {
		ratios[r] = tracedWalls[r] / plainWalls[r]
	}
	m["trace.overhead_frac"] = median(ratios) - 1

	if w.Name == "faulted-compare" {
		for _, r := range refResults {
			m["fault.events"] += float64(r.FaultEvents)
			m["fault.masked"] += float64(r.MaskedFaults)
			m["fault.aborted"] += float64(r.Aborted)
			m["fault.retried"] += float64(r.Retried)
			m["fault.dropped"] += float64(r.Dropped)
		}
	}
	if err := candidateMetrics(cfg, w, s.Plans[0], m); err != nil {
		return nil, err
	}
	if w.Name == "mesh-transpose" {
		if m["metrics.collector_overhead_frac"], err = collectorOverheadFrac(cfg.Seed); err != nil {
			return nil, err
		}
	}
	res.Ledger = batchLedger(eng, total, sum(tracedWalls), rounds)
	res.Correct = res.Failed == 0
	if err := writeSpans(cfg, s.Plans[0], traces, eng); err != nil {
		return nil, err
	}
	return res, nil
}

// candidateMetrics times the routing layers directly on the workload's own
// algorithms.
func candidateMetrics(cfg runConfig, w batchWorkload, plan []pointSpec, m map[string]float64) error {
	var algorithms []string
	seen := map[string]bool{}
	for _, p := range plan {
		if !seen[p.Algorithm] {
			seen[p.Algorithm] = true
			algorithms = append(algorithms, p.Algorithm)
		}
	}
	newTopo := plan[0].NewTopo
	var err error
	if w.EnginePkg == "vcnet" {
		m["vc.candidates_ns"], err = vcCandidatesNs(newTopo, algorithms, cfg.Seed)
		return err
	}
	if m["routing.candidates_ns"], err = routingCandidatesNs(newTopo, algorithms, cfg.Seed); err != nil {
		return err
	}
	if w.Name == "faulted-compare" {
		m["routing.faultaware_candidates_ns"], err = faultAwareCandidatesNs(newTopo, algorithms, cfg.Seed)
	}
	return err
}

// spanRecord is one line of a run's event file: one aggregated span of one
// point.
type spanRecord struct {
	Point  string `json:"point"`
	Round  int    `json:"round"`
	Span   string `json:"span"`
	Parent string `json:"parent"`
	Count  int64  `json:"count"`
	Timed  int64  `json:"timed"`
	Ns     int64  `json:"timed_ns"`
}

func writeSpans(cfg runConfig, plan []pointSpec, traces []pointTrace, enginePkg string) error {
	var recs []spanRecord
	for i, tr := range traces {
		for l := layer(0); l < numLayers; l++ {
			recs = append(recs, spanRecord{
				Point: plan[i%len(plan)].ID, Round: i / len(plan),
				Span: spanName(l, enginePkg), Parent: parentName(l, enginePkg),
				Count: tr.Spans[l].Count, Timed: tr.Spans[l].Timed, Ns: tr.Spans[l].Ns,
			})
		}
	}
	return writeArtefact(cfg, "event", cfg.Workload+".spans.json", recs)
}

func runBatch(ctx context.Context, cfg runConfig, w batchWorkload) (*runResult, error) {
	if cfg.Trace {
		return runBatchTraced(ctx, cfg, w)
	}
	return runBatchUntraced(ctx, cfg, w)
}

// describeBatch is the resolved configuration recorded with a run.
func describeBatch(cfg runConfig, w batchWorkload) map[string]any {
	win := w.Bench
	if cfg.Full {
		win = w.Full
	}
	plan := w.plan(cfg.Seed, win)
	return map[string]any{
		"engine":         w.EnginePkg,
		"warmup_cycles":  win.Warmup,
		"measure_cycles": win.Measure,
		"jobs":           w.Jobs,
		"points":         len(plan),
		"sub_seeds":      subSeeds,
		"setup_repeats":  setupRepeats,
		"min_rounds":     minRounds,
		"reference":      fmt.Sprintf("bench/golden/%s.json (seed %d); docs/results-paper-figures.txt %s with -full", w.Name, goldenSeed, w.RefFigure),
	}
}
