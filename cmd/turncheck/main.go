// Turncheck verifies the deadlock-freedom results of the turn model on
// concrete networks: it builds the exact channel dependency graph of a
// routing algorithm and checks acyclicity, validates the channel
// numberings used in the paper's proofs, and reproduces the Section 3
// census of the 16 two-turn prohibitions.
//
// Usage:
//
//	turncheck -topology mesh16x16 -routing west-first
//	turncheck -topology mesh4x4 -all          # every algorithm that fits
//	turncheck -census                          # the 16-combination census
//	turncheck -topology mesh8x8 -all -faults 5:e,node12 -ftroute khop -misroute 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"turnmodel/internal/cli"
	"turnmodel/internal/fault"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/turnmodel"
	"turnmodel/internal/vc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the report to stdout
// and errors to stderr, and returns the process exit code — 0 when every
// verified graph is deadlock free, 1 on a dependency cycle or bad input.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("turncheck", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		topoSpec = flags.String("topology", "mesh8x8", "topology to verify on")
		algName  = flags.String("routing", "", "routing algorithm to verify")
		all      = flags.Bool("all", false, "verify every algorithm constructible on the topology")
		census   = flags.Bool("census", false, "evaluate the 16 two-turn prohibitions of a 2D mesh")
		useVC    = flags.Bool("vc", false, "verify a virtual-channel algorithm (double-y, dateline-dor, naive-torus-dor, or any lifted physical algorithm)")
		faults   = flags.String("faults", "", "verify the faulted configuration instead: static faults as comma-separated channels N:dir and failed nodes nodeN")
		ftroute  = flags.String("ftroute", "off", "fault-aware routing policy to verify under -faults: off, local, khop or khopN")
		misroute = flags.Int("misroute", 0, "misroute budget of the verified -ftroute policy")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "turncheck:", err)
		return 1
	}

	if *census {
		runCensus(stdout)
		return 0
	}

	topo, err := cli.ParseTopology(*topoSpec)
	if err != nil {
		return fail(err)
	}
	if *useVC {
		if *algName == "" {
			fmt.Fprintln(stderr, "turncheck: -vc requires -routing NAME")
			return 1
		}
		alg, err := vc.New(*algName, topo)
		if err != nil {
			return fail(err)
		}
		g := vc.FromRouting(alg)
		fmt.Fprintf(stdout, "%-22s on %-14s: %4d virtual channels, %5d dependencies: ", alg.Name(), topo.Name(), g.Vertices(), g.Edges())
		if cyc := g.FindVCCycle(); cyc != nil {
			printCycle(stdout, cyc)
			return 1
		}
		fmt.Fprintln(stdout, "deadlock free")
		return 0
	}
	var names []string
	switch {
	case *all:
		seen := make(map[string]bool)
		for _, n := range routing.Names() {
			alg, err := routing.New(n, topo)
			if err != nil || seen[alg.Name()] {
				continue
			}
			seen[alg.Name()] = true
			names = append(names, n)
		}
	case *algName != "":
		names = []string{*algName}
	default:
		fmt.Fprintln(stderr, "turncheck: pass -routing NAME, -all or -census")
		return 1
	}

	if *faults != "" {
		plan, err := cli.ParseFaults(*faults, topo)
		if err != nil {
			return fail(err)
		}
		pol, err := cli.ParseFaultRouting(*ftroute)
		if err != nil {
			return fail(err)
		}
		pol.MisrouteLimit = *misroute
		return checkFaulted(stdout, topo, names, plan, pol)
	}

	exit := 0
	for _, name := range names {
		alg, err := routing.New(name, topo)
		if err != nil {
			return fail(err)
		}
		g := turnmodel.FromRouting(topo, routing.Relation(alg))
		fmt.Fprintf(stdout, "%-22s on %-14s: %4d channels, %5d dependencies: ", alg.Name(), topo.Name(), g.Vertices(), g.Edges())
		if cyc := g.FindCycle(); cyc != nil {
			printCycle(stdout, cyc)
			exit = 1
		} else {
			fmt.Fprintln(stdout, "deadlock free")
		}
		validateNumbering(stdout, alg, topo)
	}
	return exit
}

// printCycle reports a dependency cycle, one channel after another.
func printCycle[C fmt.Stringer](w io.Writer, cyc []C) {
	fmt.Fprintf(w, "DEADLOCK POSSIBLE\n  cycle: ")
	for i, ch := range cyc {
		if i > 0 {
			fmt.Fprint(w, " -> ")
		}
		fmt.Fprint(w, ch)
	}
	fmt.Fprintln(w)
}

// checkFaulted builds the channel dependency graph of each algorithm on
// the faulted configuration — under the fault-aware masking/misroute
// relation when pol is enabled, fault-oblivious otherwise — and checks
// acyclicity. It returns the process exit code: 0 when every graph is
// deadlock free, 1 when any has a dependency cycle (printed).
func checkFaulted(w io.Writer, topo topology.Topology, names []string, plan fault.Plan, pol fault.RoutingPolicy) int {
	state := fault.MustNew(plan, topo)
	dims2 := 2 * topo.Dims()
	faulted := func(from topology.NodeID, dir topology.Direction) bool {
		return state.Faulted[int(from)*dims2+int(dir)]
	}
	routeDesc := "fault-oblivious"
	if pol.Enabled() {
		routeDesc = "ftroute " + pol.WithDefaults().String()
	}
	exit := 0
	for _, name := range names {
		alg, err := routing.New(name, topo)
		if err != nil {
			fmt.Fprintln(w, "turncheck:", err)
			return 2
		}
		rel := routing.Relation(alg)
		if pol.Enabled() {
			health := fault.NewHealth(topo, state, pol)
			rel = routing.Relation(routing.NewFaultAware(alg, health, pol))
		}
		g := turnmodel.FromRoutingFaulted(topo, rel, faulted)
		fmt.Fprintf(w, "%-22s on %-14s with %d faulted channels (%s): %4d channels, %5d dependencies: ",
			alg.Name(), topo.Name(), state.ActiveFaults(), routeDesc, g.Vertices(), g.Edges())
		if cyc := g.FindCycle(); cyc != nil {
			printCycle(w, cyc)
			exit = 1
		} else {
			fmt.Fprintln(w, "deadlock free")
		}
	}
	return exit
}

// validateNumbering runs the matching Theorem 2/3/5 numbering when the
// algorithm has one.
func validateNumbering(w io.Writer, alg routing.Algorithm, topo topology.Topology) {
	mesh, ok := topo.(*topology.Mesh)
	if !ok {
		if h, isH := topo.(*topology.Hypercube); isH {
			mesh, ok = &h.Mesh, true
		}
	}
	if !ok {
		return
	}
	var nb turnmodel.Numbering
	switch alg.Name() {
	case "west-first":
		nb = turnmodel.WestFirstNumbering(mesh)
	case "north-last":
		nb = turnmodel.NorthLastNumbering(mesh)
	case "negative-first", "p-cube":
		nb = turnmodel.NegativeFirstNumbering(mesh)
	default:
		return
	}
	if err := nb.Validate(topo, routing.Relation(alg)); err != nil {
		fmt.Fprintf(w, "  numbering %q: VIOLATION: %v\n", nb.Name, err)
	} else {
		dir := "increasing"
		if nb.Decreasing {
			dir = "decreasing"
		}
		fmt.Fprintf(w, "  numbering %q: every route strictly %s (proof obligation holds)\n", nb.Name, dir)
	}
}

func runCensus(w io.Writer) {
	combos := turnmodel.Census2D(4, 4)
	free := 0
	fmt.Fprintln(w, "Section 3 census: prohibit one turn from each abstract cycle of a 2D mesh")
	for _, c := range combos {
		verdict := "deadlock possible"
		if c.DeadlockFree {
			verdict = "deadlock free"
			free++
		}
		fmt.Fprintf(w, "  prohibit {%-22s, %-22s}: %s\n", c.FromClockwise, c.FromCounter, verdict)
	}
	classes := turnmodel.SymmetryClasses(combos)
	fmt.Fprintf(w, "\n%d of 16 combinations prevent deadlock (paper: 12)\n", free)
	fmt.Fprintf(w, "%d unique classes under the square's symmetries (paper: 3)\n", len(classes))
	for i, cl := range classes {
		fmt.Fprintf(w, "  class %d (%d members), e.g. prohibit {%v, %v}\n", i+1, len(cl), cl[0].FromClockwise, cl[0].FromCounter)
	}
}
