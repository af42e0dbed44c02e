// Bench is the repository's end-to-end benchmark: six workloads, an
// end-to-end scoreboard and, with -trace, a per-layer cost ledger. See
// README.md in this directory.
//
//	go run -C bench .                    every workload, untraced
//	go run -C bench . -trace             every workload, traced
//	go run -C bench . -workload vc-mesh  one workload
//	go run -C bench . -repeat 2          run-to-run spread against the bounds
//	go run -C bench . -list              names, units, directions, bounds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"turnmodel/internal/sim"
)

func main() {
	// An interrupt or a termination request cancels the run: children —
	// the per-workload processes, turnserved — are told to stop and waited
	// for, so nothing outlives this process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailed reports a run whose outputs failed their checks; the details
// are already printed.
var errFailed = errors.New("outputs failed their checks")

// bareTrace lets "-trace" stand for "-trace 1": the flag takes a value so
// that the driver's "--trace 0" parses.
func bareTrace(args []string) []string {
	var out []string
	for i, a := range args {
		out = append(out, a)
		if a == "-trace" || a == "--trace" {
			if i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1") {
				out = append(out, "1")
			}
		}
	}
	return out
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload    = fs.String("workload", "", "run this workload only, in this process (default: every workload, each in a child process)")
		seed        = fs.Int64("seed", goldenSeed, "seed of the generated load; the only input that changes it")
		seconds     = fs.Float64("seconds", 10, "how long each workload measures")
		trace       = fs.Int("trace", 0, "1 records spans around every layer call and reports the per-layer ledger")
		full        = fs.Bool("full", false, "batch workloads run one round at the archived tables' windows and are compared with docs/ row for row")
		repeat      = fs.Int("repeat", 0, "run the untraced set this many times and judge the spread by each metric's bound")
		list        = fs.Bool("list", false, "print workloads and metrics and exit")
		writeGolden = fs.Bool("write-golden", false, "rewrite bench/golden from a clean tree and exit")
		out         = fs.String("out", "", "directory for run artefacts (default .bench_build/out in the checkout)")
		runName     = fs.String("run-name", "", "name of this run's artefact directory (default derived from mode and seed)")
	)
	if err := fs.Parse(bareTrace(args)); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *list {
		printList()
		return nil
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	cfg := runConfig{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace != 0,
		Full:     *full,
		Root:     root,
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if *out == "" {
		*out = filepath.Join(root, ".bench_build", "out")
	}
	if *runName == "" {
		*runName = defaultRunName(cfg)
	}
	cfg.RunDir = filepath.Join(*out, *runName)

	switch {
	case *writeGolden:
		return rewriteGoldens(cfg)
	case *workload != "":
		return runOne(ctx, cfg)
	case *repeat > 0:
		return runRepeat(ctx, cfg, *out, *repeat)
	default:
		_, err := runAll(ctx, cfg)
		return err
	}
}

func defaultRunName(cfg runConfig) string {
	name := "untraced"
	if cfg.Trace {
		name = "traced"
	}
	if cfg.Full {
		name += "-full"
	}
	return fmt.Sprintf("%s-seed%d", name, cfg.Seed)
}

// findRoot locates the checkout: the nearest directory at or above the
// working directory that holds BENCHMARK.json ("go run -C bench ." starts
// the program inside bench/).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-18s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (untraced run):")
	for _, m := range endToEnd {
		fmt.Printf("  %-34s %-9s better %-7s bound %.0f%%\n", m.Name, m.Unit, m.Better, 100*m.Bound)
	}
	fmt.Println("per-layer metrics (traced run):")
	for _, m := range perLayer {
		fmt.Printf("  %-34s %-9s better %s\n", m.Name, m.Unit, m.Better)
	}
}

// runOne runs one workload in this process, prints it for a reader and
// ends standard output with the contract line.
func runOne(ctx context.Context, cfg runConfig) error {
	if _, ok := workloadByName(cfg.Workload); !ok {
		return fmt.Errorf("unknown workload %q (see -list)", cfg.Workload)
	}
	var (
		res      *runResult
		err      error
		resolved map[string]any
	)
	if w, ok := batchByName(cfg.Workload); ok {
		resolved = describeBatch(cfg, w)
		res, err = runBatch(ctx, cfg, w)
	} else {
		if cfg.Full {
			return fmt.Errorf("-full applies to the batch workloads only")
		}
		resolved = describeServe(cfg)
		res, err = runServe(ctx, cfg)
	}
	if err != nil {
		return err
	}
	if err := writeArtefact(cfg, "config", cfg.Workload+".json", map[string]any{
		"run": cfg, "workload": resolved, "environment": readEnvironment(),
	}); err != nil {
		return err
	}
	if err := writeArtefact(cfg, "result", cfg.Workload+".json", res); err != nil {
		return err
	}
	res.print(os.Stdout)
	line, err := res.contractLine()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return errFailed
	}
	return nil
}

// runAll runs every workload, each in a child process of this program so
// that heap state and the peak resident set do not leak from one workload
// into the next, then prints the scoreboard and writes the summary.
func runAll(ctx context.Context, cfg runConfig) ([]*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var (
		results []*runResult
		failed  []string
	)
	for _, w := range workloads {
		args := []string{
			"-workload", w.Name,
			"-seed", strconv.FormatInt(cfg.Seed, 10),
			"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64),
			"-trace", map[bool]string{false: "0", true: "1"}[cfg.Trace],
			"-out", filepath.Dir(cfg.RunDir),
			"-run-name", filepath.Base(cfg.RunDir),
		}
		if cfg.Full {
			if _, batch := batchByName(w.Name); !batch {
				continue
			}
			args = append(args, "-full")
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		cmd.Dir = cfg.Root
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		resultPath := filepath.Join(cfg.RunDir, "result", w.Name+".json")
		os.Remove(resultPath) // never read an earlier run's result
		runErr := cmd.Run()
		raw, err := os.ReadFile(resultPath)
		if err != nil {
			return nil, fmt.Errorf("workload %s left no result (%v): %w", w.Name, runErr, err)
		}
		var res runResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		results = append(results, &res)
		if runErr != nil || !res.Correct {
			failed = append(failed, w.Name)
		}
	}
	printScoreboard(results)
	summary := map[string]any{"environment": readEnvironment(), "run": cfg, "results": results}
	if err := writeArtefact(cfg, "result", "summary.json", summary); err != nil {
		return nil, err
	}
	fmt.Printf("artefacts: %s\n", cfg.RunDir)
	if len(failed) > 0 {
		return results, fmt.Errorf("%w: %s", errFailed, strings.Join(failed, ", "))
	}
	return results, nil
}

// printScoreboard prints the end-to-end metrics of every workload side by
// side.
func printScoreboard(results []*runResult) {
	fmt.Printf("\n%-18s", "end to end")
	for _, m := range endToEnd {
		fmt.Printf(" %18s", m.Name)
	}
	fmt.Printf(" %10s\n%-18s", "failed", "")
	for _, m := range endToEnd {
		fmt.Printf(" %18s", m.Unit)
	}
	fmt.Println()
	for _, r := range results {
		fmt.Printf("%-18s", r.Workload)
		for _, m := range endToEnd {
			if v, ok := r.Metrics[m.Name]; ok {
				fmt.Printf(" %18.6g", v)
			} else {
				fmt.Printf(" %18s", "-")
			}
		}
		fmt.Printf(" %5d/%d\n", r.Failed, r.Attempted)
	}
}

// runRepeat runs the untraced set n times and prints, per end-to-end
// metric and workload, min / median / max and whether the spread between
// the runs is inside the metric's bound.
func runRepeat(ctx context.Context, cfg runConfig, out string, n int) error {
	if cfg.Trace {
		return fmt.Errorf("-repeat measures the untraced set; drop -trace")
	}
	var runs [][]*runResult
	var firstErr error
	for i := 1; i <= n; i++ {
		c := cfg
		c.RunDir = filepath.Join(out, fmt.Sprintf("repeat%d-seed%d", i, cfg.Seed))
		results, err := runAll(ctx, c)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if results == nil {
			return err
		}
		runs = append(runs, results)
	}
	type spread struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Values   []float64 `json:"values"`
		Min      float64   `json:"min"`
		Median   float64   `json:"median"`
		Max      float64   `json:"max"`
		Spread   float64   `json:"spread"`
		Bound    float64   `json:"bound"`
		Inside   bool      `json:"inside_bound"`
	}
	var spreads []spread
	outside := 0
	fmt.Printf("\nrun-to-run spread over %d runs (max-min as a share of the median; from 4 runs on, the distance between the quartiles):\n", n)
	fmt.Printf("%-18s %-18s %14s %14s %14s %8s %7s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for wi, w := range runs[0] {
		for _, m := range endToEnd {
			var vals []float64
			for _, results := range runs {
				if wi < len(results) {
					if v, ok := results[wi].Metrics[m.Name]; ok {
						vals = append(vals, v)
					}
				}
			}
			if len(vals) == 0 {
				continue
			}
			lo, _ := percentile(vals, 0)
			hi, _ := percentile(vals, 100)
			// The median of an even count is the mean of the middle two,
			// so that two runs are judged symmetrically.
			mid := (lo + hi) / 2
			if len(vals) > 2 {
				mid = median(vals)
			}
			s := spread{Workload: w.Workload, Metric: m.Name, Values: vals, Min: lo, Median: mid, Max: hi, Bound: m.Bound}
			switch {
			case len(vals) >= 4:
				// The figure the benchmark's acceptance is judged by.
				s.Spread = quartileSpread(vals)
			case mid != 0:
				s.Spread = (hi - lo) / mid
			}
			s.Inside = s.Spread <= m.Bound
			verdict := "inside"
			if !s.Inside {
				verdict = "OUTSIDE"
				outside++
			}
			fmt.Printf("%-18s %-18s %14.6g %14.6g %14.6g %7.2f%% %6.0f%% %s\n", s.Workload, s.Metric, lo, mid, hi, 100*s.Spread, 100*m.Bound, verdict)
			spreads = append(spreads, s)
		}
	}
	c := cfg
	c.RunDir = filepath.Join(out, fmt.Sprintf("repeat-seed%d", cfg.Seed))
	if err := writeArtefact(c, "result", "summary.json", map[string]any{
		"environment": readEnvironment(), "run": cfg, "repeats": n, "runs": runs, "spreads": spreads,
	}); err != nil {
		return err
	}
	fmt.Printf("artefacts: %s\n", c.RunDir)
	if firstErr != nil {
		return firstErr
	}
	if outside > 0 {
		return fmt.Errorf("%d metric x workload pairs spread wider than their bound", outside)
	}
	return nil
}

// rewriteGoldens regenerates bench/golden from the sim entry points. It
// refuses on a tree whose sources differ from what git has committed: a
// golden records what committed code computes, never what an edit in
// progress does, and a mismatch is a failed operation, never a reason to
// re-baseline.
func rewriteGoldens(cfg runConfig) error {
	dirty, err := treeDirty(cfg.Root)
	if err != nil {
		return err
	}
	if dirty != "" {
		return fmt.Errorf("refusing to write goldens from a dirty tree: %s", dirty)
	}
	for _, w := range batchWorkloads {
		var (
			plans   [][]pointSpec
			results [][]sim.Result
		)
		for k := 0; k < subSeeds; k++ {
			plan := w.plan(subSeed(goldenSeed, k), w.Bench)
			res, _, _, err := w.run(subSeed(goldenSeed, k), w.Bench)
			if err != nil {
				return err
			}
			own, _, err := driveAll(plan, w.Jobs, false)
			if err != nil {
				return err
			}
			if bad := countMismatches(digests(own), digests(res)); bad > 0 {
				return fmt.Errorf("%s: %d of %d points differ between the sim entry point and the benchmark's driver; not writing a golden the two disagree on", w.Name, bad, len(plan))
			}
			plans, results = append(plans, plan), append(results, res)
		}
		if err := writeGolden(cfg.benchDir(), w, plans, results); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d sweeps of %d points)\n", goldenPath(cfg.benchDir(), w.Name), len(plans), len(plans[0]))
	}
	return nil
}
