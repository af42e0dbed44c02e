// Turnsweep regenerates the paper's evaluation artifacts: the latency-
// versus-throughput curves of Figures 13-16 (plus the uniform-hypercube
// comparison discussed in the text) and the average-path-length table.
//
// The figure sweeps decompose into independent (figure, algorithm, rate)
// simulations and run on a worker pool (-jobs, default: all CPUs). Every
// job's seed is derived from its identity alone, so the tables are
// bit-identical for any worker count; -json additionally writes a
// machine-readable report with per-point results and timings (the schema
// is documented in docs/sweeps.md).
//
// Usage:
//
//	turnsweep -figure 14            # one figure
//	turnsweep -figure 13,14,16      # several
//	turnsweep -all                  # every paper figure
//	turnsweep -all -jobs 8          # ... on 8 workers
//	turnsweep -all -json out.json   # ... plus the structured report
//	turnsweep -hops                 # the path-length claims
//	turnsweep -quick -all           # scaled-down windows for a fast pass
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"turnmodel/internal/cli"
	"turnmodel/internal/fault"
	"turnmodel/internal/sim"
	"turnmodel/internal/simcache"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

func main() {
	var (
		figure   = flag.String("figure", "", "comma-separated figures to regenerate: 13, 14, 15, 16, uniform-cube, extension-...")
		all      = flag.Bool("all", false, "regenerate every paper figure")
		ext      = flag.Bool("extensions", false, "run the extension experiments (hex, octagonal, hotspot)")
		hops     = flag.Bool("hops", false, "print the average path length table")
		quick    = flag.Bool("quick", false, "use short warmup/measurement windows")
		warmup   = flag.Int64("warmup", 20000, "warmup cycles")
		measure  = flag.Int64("measure", 40000, "measurement cycles")
		seed     = flag.Int64("seed", 1, "random seed")
		jobs     = flag.Int("jobs", 0, "parallel sweep workers (0 = all CPUs)")
		eventdrv = flag.Bool("eventdriven", true, "leap the clock over provably idle cycles (results are identical either way; disable to step every cycle)")
		jsonOut  = flag.String("json", "", "also write a structured JSON report to this file")
		seedMode = flag.String("seedmode", "paired", "per-job seed derivation: paired (common random numbers; matches the archived tables) or hash (independent streams)")
		progress = flag.Bool("progress", true, "report sweep progress on stderr (only when stderr is a terminal)")
		plot     = flag.Bool("plot", false, "also render an ASCII latency-vs-throughput chart")
		vcrun    = flag.Bool("vc", false, "run the virtual-channel extension experiment (double-y vs west-first vs xy)")
		metrics  = flag.Bool("metrics", false, "collect per-point metrics (channel utilization, latency percentiles); printed per figure and included in the -json report (schema v2)")

		cacheDir = flag.String("cachedir", "", "content-addressed result cache directory; repeated points are served from it without simulating")

		resilience  = flag.String("resilience", "", "run resilience figures (graceful degradation vs fault rate): comma-separated IDs or \"all\"")
		faults      = flag.String("faults", "", "static faults applied to every figure job: comma-separated channels N:dir and failed nodes nodeN")
		faultRate   = flag.Float64("faultrate", 0, "per-cycle per-channel failure probability applied to every figure job")
		faultRepair = flag.Int64("faultrepair", 0, "repair delay in cycles for random faults; 0 makes them permanent")
		recovery    = flag.Bool("recovery", false, "enable deadlock recovery (abort + source retry) in every figure job")
		ftroute     = flag.String("ftroute", "off", "fault-aware routing in every figure job: off, local, khop or khopN")
		misroute    = flag.Int("misroute", 0, "max nonminimal detour hops per packet attempt under -ftroute")
		ftcompare   = flag.String("ftcompare", "", "run the masking-vs-recovery resilience comparison: comma-separated resilience IDs or \"all\"")
	)
	flag.Parse()

	// Ctrl-C or SIGTERM stops the sweep at point granularity: in-flight
	// simulations finish, nothing new starts, and the process exits
	// nonzero without partial tables.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *quick {
		*warmup, *measure = 3000, 8000
	}
	var cache sim.Cache
	if *cacheDir != "" {
		cache = simcache.NewStore(simcache.Options{Dir: *cacheDir})
	}
	var seedFn sim.SeedFunc
	switch *seedMode {
	case "paired":
		seedFn = sim.PairedSeed
	case "hash":
		seedFn = sim.HashSeed
	default:
		fmt.Fprintf(os.Stderr, "turnsweep: unknown -seedmode %q (want paired or hash)\n", *seedMode)
		os.Exit(1)
	}

	ftpol, err := cli.ParseFaultRouting(*ftroute)
	if err != nil {
		fmt.Fprintln(os.Stderr, "turnsweep:", err)
		os.Exit(1)
	}
	ftpol.MisrouteLimit = *misroute

	ran := false
	if *hops {
		printHops()
		ran = true
	}
	if *vcrun {
		fmt.Println(sim.VCComparison(*warmup, *measure, *seed).Table())
		ran = true
	}
	if *resilience != "" {
		out, err := sim.RunSweep(ctx, sim.Options{
			Resilience:       resilienceSpecs(*resilience),
			WarmupCycles:     *warmup,
			MeasureCycles:    *measure,
			Seed:             *seed,
			Jobs:             cli.Jobs(*jobs),
			DisableEventSkip: !*eventdrv,
			Cache:            cache,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "turnsweep:", err)
			os.Exit(1)
		}
		for _, rr := range out.Resilience {
			fmt.Println(rr.Table())
		}
		ran = true
	}
	if *ftcompare != "" {
		out, err := sim.RunSweep(ctx, sim.Options{
			Resilience:       resilienceSpecs(*ftcompare),
			CompareModes:     true,
			WarmupCycles:     *warmup,
			MeasureCycles:    *measure,
			Seed:             *seed,
			Jobs:             cli.Jobs(*jobs),
			DisableEventSkip: !*eventdrv,
			Cache:            cache,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "turnsweep:", err)
			os.Exit(1)
		}
		for _, rc := range out.Compares {
			fmt.Println(rc.Table())
		}
		ran = true
	}
	var specs []sim.FigureSpec
	if *all {
		specs = sim.Figures()
	}
	if *ext {
		specs = append(specs, sim.ExtensionFigures()...)
	}
	if len(specs) == 0 && *figure != "" {
		for _, id := range cli.ParseFigureIDs(*figure) {
			spec, ok := sim.FigureByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "turnsweep: unknown figure %q\n", id)
				os.Exit(1)
			}
			specs = append(specs, spec)
		}
	}
	if len(specs) > 0 {
		plan := sim.Options{
			Specs:            specs,
			WarmupCycles:     *warmup,
			MeasureCycles:    *measure,
			Seed:             *seed,
			Jobs:             cli.Jobs(*jobs),
			SeedFn:           seedFn,
			Metrics:          *metrics,
			FaultPlan:        fault.Plan{Rate: *faultRate, Repair: *faultRepair},
			Recovery:         fault.Recovery{Enabled: *recovery},
			FaultRouting:     ftpol,
			DisableEventSkip: !*eventdrv,
			Cache:            cache,
		}
		if *faults != "" {
			// Static fault channels must exist in every topology being
			// swept; parse against the first figure's topology and validate
			// against the rest so a bad spec fails before any simulation.
			fp, err := cli.ParseFaults(*faults, specs[0].NewTopology())
			if err != nil {
				fmt.Fprintln(os.Stderr, "turnsweep:", err)
				os.Exit(1)
			}
			for _, spec := range specs[1:] {
				fp2 := fp
				fp2.Rate, fp2.Repair = plan.FaultPlan.Rate, plan.FaultPlan.Repair
				if err := fault.Validate(spec.NewTopology(), fp2); err != nil {
					fmt.Fprintf(os.Stderr, "turnsweep: figure %s: %v\n", spec.ID, err)
					os.Exit(1)
				}
			}
			plan.FaultPlan.Static = fp.Static
			plan.FaultPlan.Nodes = fp.Nodes
		}
		if *progress && stderrIsTerminal() {
			plan.Progress = printProgress
		}
		out, err := sim.RunSweep(ctx, plan)
		if plan.Progress != nil {
			fmt.Fprintln(os.Stderr)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "turnsweep:", err)
			os.Exit(1)
		}
		report := out.Report
		for _, fr := range out.Figures {
			fmt.Println(fr.Table())
			if *metrics {
				printFigureMetrics(fr)
			}
			if *plot {
				fmt.Println(fr.Plot(64, 20))
			}
		}
		if *jsonOut != "" {
			if err := writeReport(*jsonOut, report); err != nil {
				fmt.Fprintln(os.Stderr, "turnsweep:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "turnsweep: report written to %s (%d jobs, %.1fs wall, %.1fs cpu)\n",
				*jsonOut, report.Totals.JobsRun, report.Totals.WallMillis/1000, report.Totals.CPUMillis/1000)
		}
		ran = true
	}
	if !ran {
		fmt.Fprintln(os.Stderr, "turnsweep: nothing to do (pass -figure N, -all or -hops)")
		os.Exit(1)
	}
}

// resilienceSpecs resolves a comma-separated resilience figure list (or
// "all"), exiting on an unknown ID.
func resilienceSpecs(spec string) []sim.ResilienceSpec {
	if spec == "all" {
		return sim.ResilienceFigures()
	}
	var out []sim.ResilienceSpec
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		rs, ok := sim.ResilienceByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "turnsweep: unknown resilience figure %q\n", id)
			os.Exit(1)
		}
		out = append(out, rs)
	}
	return out
}

// printFigureMetrics renders one line per (algorithm, rate) point from the
// collector snapshots: latency percentiles, the queueing/in-network delay
// split, and channel utilization.
func printFigureMetrics(fr sim.FigureResult) {
	fmt.Printf("%s metrics:\n", fr.Spec.ID)
	fmt.Printf("  %-16s %-8s %10s %10s %10s %10s %10s %8s %8s\n",
		"algorithm", "rate", "p50 us", "p95 us", "p99 us", "queue us", "net us", "util", "max util")
	for _, name := range fr.Spec.Algorithms {
		for ri, rate := range fr.Spec.Rates {
			m := fr.Series[name][ri].Metrics
			if m == nil {
				continue
			}
			fmt.Printf("  %-16s %-8.4f %10.2f %10.2f %10.2f %10.2f %10.2f %8.3f %8.3f\n",
				name, rate, m.LatencyP50Us, m.LatencyP95Us, m.LatencyP99Us,
				m.AvgQueueDelayUs, m.AvgNetDelayUs, m.MeanChannelUtil, m.MaxChannelUtil)
		}
	}
	fmt.Println()
}

// printProgress renders a one-line jobs-done/ETA ticker on stderr.
func printProgress(ev sim.ProgressEvent) {
	var eta time.Duration
	if ev.Done > 0 {
		eta = time.Duration(float64(ev.Elapsed) / float64(ev.Done) * float64(ev.Total-ev.Done))
	}
	fmt.Fprintf(os.Stderr, "\rturnsweep: %d/%d jobs (%d%%) eta %s  last %s/%s@%.3f in %s   ",
		ev.Done, ev.Total, 100*ev.Done/ev.Total, eta.Round(time.Second),
		ev.Figure, ev.Algorithm, ev.Rate, ev.JobWall.Round(10*time.Millisecond))
}

func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

func writeReport(path string, report *sim.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printHops() {
	mesh := topology.NewMesh2D(16, 16)
	cube := topology.NewHypercube(8)
	fmt.Println("average shortest-path lengths (fixed points excluded):")
	fmt.Printf("  %-28s %6.2f hops (paper: 10.61)\n", "16x16 mesh, uniform",
		traffic.AveragePathLength(traffic.Uniform{Topo: mesh}, mesh))
	fmt.Printf("  %-28s %6.2f hops (paper: 11.34)\n", "16x16 mesh, matrix-transpose",
		traffic.AveragePathLength(traffic.NewMeshTranspose(mesh), mesh))
	fmt.Printf("  %-28s %6.2f hops (paper: 4.01)\n", "8-cube, uniform",
		traffic.AveragePathLength(traffic.Uniform{Topo: cube}, cube))
	fmt.Printf("  %-28s %6.2f hops (paper: 4.27)\n", "8-cube, matrix-transpose",
		traffic.AveragePathLength(traffic.NewHypercubeTranspose(cube), cube))
	fmt.Printf("  %-28s %6.2f hops (paper: 4.27)\n", "8-cube, reverse-flip",
		traffic.AveragePathLength(traffic.ReverseFlip{Cube: cube}, cube))
	fmt.Println()
}
