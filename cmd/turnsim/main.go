// Turnsim runs one wormhole-routing simulation in the style of Section 6
// of Glass & Ni and prints the measured latency and throughput.
//
// Usage:
//
//	turnsim -topology mesh16x16 -routing west-first -pattern transpose -rate 0.05
package main

import (
	"flag"
	"fmt"
	"os"

	"turnmodel/internal/cli"
	"turnmodel/internal/fault"
	"turnmodel/internal/network"
	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
	"turnmodel/internal/simcache"
	"turnmodel/internal/vc"
)

func main() {
	var (
		topoSpec = flag.String("topology", "mesh16x16", "topology: meshAxB[xC...], hypercubeN, torusAxB, karyKxN")
		algName  = flag.String("routing", "xy", fmt.Sprintf("routing algorithm: one of %v", routing.Names()))
		pattern  = flag.String("pattern", "uniform", "traffic: uniform, transpose, reverse-flip, bit-complement, bit-reversal, hotspotF")
		rate     = flag.Float64("rate", 0.05, "offered load per node in flits/cycle (x20 = flits/us)")
		warmup   = flag.Int64("warmup", 20000, "warmup cycles")
		measure  = flag.Int64("measure", 40000, "measurement cycles")
		seed     = flag.Int64("seed", 1, "random seed")
		outPol   = flag.String("output", "", fmt.Sprintf("output selection policy: one of %v", network.OutputPolicyNames()))
		inPol    = flag.String("input", "", fmt.Sprintf("input selection policy: one of %v", network.InputPolicyNames()))
		useVC    = flag.Bool("vc", false, "run on the virtual-channel simulator (accepts VC algorithms such as double-y, dateline-dor, ccc-ascending)")
		eventdrv = flag.Bool("eventdriven", true, "leap the clock over provably idle cycles (results are identical either way; disable to step every cycle)")
		metrics  = flag.Bool("metrics", false, "collect and print run metrics: latency percentiles, delay split, channel-utilization heatmap")
		verbose  = flag.Bool("v", false, "print the full result breakdown")

		cacheDir = flag.String("cachedir", "", "content-addressed result cache directory; a repeated run is served from it without simulating")

		faults      = flag.String("faults", "", "static faults: comma-separated channels N:dir (5:e, 5:+0) and failed nodes nodeN")
		faultRate   = flag.Float64("faultrate", 0, "per-cycle per-channel failure probability of the random fault process")
		faultRepair = flag.Int64("faultrepair", 0, "repair delay in cycles for random faults; 0 makes them permanent")
		faultSeed   = flag.Int64("faultseed", 0, "seed of the random fault process; 0 derives it from -seed")
		recovery    = flag.Bool("recovery", false, "enable deadlock recovery: abort stalled worms and retry from the source with backoff")
		ftroute     = flag.String("ftroute", "off", "fault-aware routing: off, local (own channels), khop or khopN (disseminate within N hops)")
		misroute    = flag.Int("misroute", 0, "max nonminimal detour hops per packet attempt under -ftroute (0 disables misrouting)")
	)
	flag.String("output-policy", "", "deprecated alias for -output")
	flag.String("input-policy", "", "deprecated alias for -input")
	flag.Parse()
	// The historical flag names keep working; the new ones win when both
	// are set.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "output-policy":
			if *outPol == "" {
				*outPol = f.Value.String()
			}
		case "input-policy":
			if *inPol == "" {
				*inPol = f.Value.String()
			}
		}
	})

	topo, err := cli.ParseTopology(*topoSpec)
	if err != nil {
		fatal(err)
	}
	pat, err := cli.ParsePattern(*pattern, topo)
	if err != nil {
		fatal(err)
	}
	plan, err := cli.ParseFaults(*faults, topo)
	if err != nil {
		fatal(err)
	}
	plan.Rate = *faultRate
	plan.Repair = *faultRepair
	plan.Seed = *faultSeed
	if plan.Seed == 0 {
		plan.Seed = *seed + 1
	}
	rec := fault.Recovery{Enabled: *recovery}
	ftpol, err := cli.ParseFaultRouting(*ftroute)
	if err != nil {
		fatal(err)
	}
	ftpol.MisrouteLimit = *misroute
	var cache sim.Cache
	if *cacheDir != "" {
		cache = simcache.NewStore(simcache.Options{Dir: *cacheDir})
	}
	if *useVC {
		valg, err := vc.New(*algName, topo)
		if err != nil {
			fatal(err)
		}
		res, hit := sim.RunVCCached(sim.VCConfig{
			Routing: valg,
			RunParams: sim.RunParams{
				Pattern:          pat,
				InjectionRate:    *rate,
				WarmupCycles:     *warmup,
				MeasureCycles:    *measure,
				Seed:             *seed,
				Metrics:          *metrics,
				FaultPlan:        plan,
				Recovery:         rec,
				FaultRouting:     ftpol,
				DisableEventSkip: !*eventdrv,
			},
		}, cache)
		report(topo.Name(), valg.Name(), pat.Name(), res, *verbose)
		printMetrics(res)
		noteCached(hit)
		return
	}
	alg, err := routing.New(*algName, topo)
	if err != nil {
		fatal(err)
	}
	output, err := cli.ParseOutputPolicy(*outPol)
	if err != nil {
		fatal(err)
	}
	input, err := cli.ParseInputPolicy(*inPol)
	if err != nil {
		fatal(err)
	}

	res, hit := sim.RunCached(sim.Config{
		Routing: alg,
		RunParams: sim.RunParams{
			Pattern:          pat,
			InjectionRate:    *rate,
			WarmupCycles:     *warmup,
			MeasureCycles:    *measure,
			Seed:             *seed,
			Metrics:          *metrics,
			FaultPlan:        plan,
			Recovery:         rec,
			FaultRouting:     ftpol,
			DisableEventSkip: !*eventdrv,
		},
		Output: output,
		Input:  input,
	}, cache)
	report(topo.Name(), alg.Name(), pat.Name(), res, *verbose)
	printMetrics(res)
	noteCached(hit)
}

// noteCached tells the operator on stderr when the result came from the
// cache rather than a fresh simulation; stdout stays byte-identical either
// way.
func noteCached(hit bool) {
	if hit {
		fmt.Fprintln(os.Stderr, "turnsim: result served from cache")
	}
}

// printMetrics renders the collector snapshot when -metrics was on.
func printMetrics(res sim.Result) {
	if res.Metrics == nil {
		return
	}
	fmt.Println()
	fmt.Print(res.Metrics.Summary())
	fmt.Print(res.Metrics.UtilizationHeatmap())
}

func report(topo, alg, pattern string, res sim.Result, verbose bool) {
	fmt.Printf("topology   %s\nrouting    %s\npattern    %s\n", topo, alg, pattern)
	fmt.Printf("offered    %.1f flits/us network-wide (%.4f flits/node/cycle)\n", res.OfferedFlitsPerUs, res.InjectionRate)
	fmt.Printf("throughput %.1f flits/us\nlatency    %.2f us average (p95 %.2f us)\n", res.ThroughputFlitsPerUs, res.AvgLatencyUs, res.P95LatencyUs)
	fmt.Printf("sustainable %v\n", res.Sustainable)
	if res.FaultEvents > 0 || res.Dropped > 0 || res.Aborted > 0 {
		fmt.Printf("delivered  %d of %d packets (%.2f%%); %d dropped, %d aborted, %d retried, %d fault events\n",
			res.Delivered, res.Delivered+res.Dropped, 100*res.DeliveredFraction,
			res.Dropped, res.Aborted, res.Retried, res.FaultEvents)
	}
	if res.MaskedFaults > 0 || res.MisrouteHops > 0 {
		fmt.Printf("masked     %d routing decisions steered around known faults; %d misroute hops\n",
			res.MaskedFaults, res.MisrouteHops)
	}
	if res.Deadlocked {
		fmt.Println("DEADLOCK detected by the watchdog")
	}
	if verbose {
		fmt.Printf("\npackets measured %d\navg hops %.2f\nmax source queue %d\nbacklog growth %d packets\n",
			res.Packets, res.AvgHops, res.MaxQueue, res.QueueGrowth)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "turnsim:", err)
	os.Exit(1)
}
