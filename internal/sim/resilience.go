package sim

import (
	"fmt"
	"sort"
	"strings"

	"turnmodel/internal/fault"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// ResilienceSpec declares a graceful-degradation experiment: a fixed
// offered load swept across link-failure rates with deadlock recovery on,
// tracing delivered-packet fraction, throughput and latency as the network
// decays. It is the quantitative form of the paper's closing claim that
// adaptive turn-model routing tolerates faults nonadaptive routing cannot.
type ResilienceSpec struct {
	// ID, Title and Claim mirror FigureSpec.
	ID    string
	Title string
	Claim string
	// NewTopology constructs the network.
	NewTopology func() topology.Topology
	// Algorithms are registry names resolved against the topology.
	Algorithms []string
	// NewPattern builds the workload.
	NewPattern func(topology.Topology) traffic.Pattern
	// InjectionRate is the fixed offered load in flits/node/cycle, chosen
	// well below every algorithm's fault-free saturation so degradation
	// measures fault tolerance rather than congestion.
	InjectionRate float64
	// FaultRates is the sweep: per-cycle per-channel failure probability
	// of the random fault process (see fault.Plan.Rate).
	FaultRates []float64
	// RepairDelay is the transient-fault repair delay in cycles; 0 makes
	// every fault permanent (see fault.Plan.Repair).
	RepairDelay int64
}

// ResilienceFigures returns the resilience experiments: the 16x16 mesh
// under the paper's mesh algorithms and the binary 8-cube including
// nonminimal p-cube, whose fault tolerance Section 5 argues for explicitly.
func ResilienceFigures() []ResilienceSpec {
	uniform := func(t topology.Topology) traffic.Pattern { return traffic.Uniform{Topo: t} }
	return []ResilienceSpec{
		{
			ID:          "resilience-mesh",
			Title:       "Graceful degradation under permanent link faults in a 16x16 mesh",
			Claim:       "adaptive turn-model routing delivers around broken channels where xy, with exactly one path per pair, must drop; delivered fraction decays more slowly for west-first and negative-first",
			NewTopology: func() topology.Topology { return topology.NewMesh2D(16, 16) },
			Algorithms:  []string{"xy", "west-first", "negative-first"},
			NewPattern:  uniform,
			// Expected permanent faults over a default 60k-cycle run on
			// the mesh's 960 channels: roughly 3, 6, 12, 29, 58.
			InjectionRate: 0.04,
			FaultRates:    []float64{0, 5e-8, 1e-7, 2e-7, 5e-7, 1e-6},
		},
		{
			ID:          "resilience-cube",
			Title:       "Graceful degradation under permanent link faults in a binary 8-cube",
			Claim:       "nonminimal p-cube survives faults that cut every minimal path (Section 5); minimal adaptive p-cube degrades more slowly than e-cube",
			NewTopology: func() topology.Topology { return topology.NewHypercube(8) },
			Algorithms:  []string{"e-cube", "p-cube", "p-cube-nonminimal"},
			NewPattern:  uniform,
			// 2048 channels: roughly 6, 12, 25, 61, 123 faults per run.
			// The load sits below nonminimal p-cube's saturation too, so
			// degradation is fault-driven for every curve.
			InjectionRate: 0.05,
			FaultRates:    []float64{0, 5e-8, 1e-7, 2e-7, 5e-7, 1e-6},
		},
	}
}

// ResilienceByID finds a resilience spec by ID.
func ResilienceByID(id string) (ResilienceSpec, bool) {
	for _, s := range ResilienceFigures() {
		if s.ID == id {
			return s, true
		}
	}
	return ResilienceSpec{}, false
}

// ResilienceResult holds one resilience sweep, one series per algorithm
// indexed like Spec.FaultRates.
type ResilienceResult struct {
	Spec   ResilienceSpec
	Series map[string][]Result
}

// ResilienceMode is one fault-handling configuration of the
// masking-versus-recovery comparison: which of the two defense layers —
// end-to-end abort/retry recovery and in-network fault-aware routing —
// are switched on.
type ResilienceMode struct {
	// Name labels the mode in tables ("recovery", "masking",
	// "recovery+masking").
	Name string
	// Recovery enables deadlock recovery (abort, backoff, source retry).
	Recovery bool
	// FaultRouting is the fault-aware routing policy; the zero value
	// leaves routing fault-oblivious.
	FaultRouting fault.RoutingPolicy
}

// ResilienceModes returns the three configurations a compare run
// (Options.CompareModes) contrasts. Masking uses k-hop health dissemination at the default
// radius with a misroute budget of 4 — enough for a detour around any
// single broken link and its immediate neighborhood. The masking-only
// mode runs with the watchdog disabled: a packet whose every permitted
// path is dead then stalls in place instead of being recovered, which is
// exactly the failure mode the comparison is meant to expose.
func ResilienceModes() []ResilienceMode {
	pol := fault.RoutingPolicy{Visibility: fault.VisibilityKHop, MisrouteLimit: 4}
	return []ResilienceMode{
		{Name: "recovery", Recovery: true},
		{Name: "masking", FaultRouting: pol},
		{Name: "recovery+masking", Recovery: true, FaultRouting: pol},
	}
}

// ResilienceCompareResult holds the mode comparison of one spec:
// Series[mode][algorithm] is indexed like Spec.FaultRates.
type ResilienceCompareResult struct {
	Spec   ResilienceSpec
	Modes  []ResilienceMode
	Series map[string]map[string][]Result
}

// Table renders the comparison: one block per algorithm with delivered
// fraction, throughput and latency per mode as the fault rate climbs,
// then the masking gain — delivered fraction and latency recovered by
// adding fault-aware routing to recovery — at the highest fault rate.
func (rc ResilienceCompareResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s — recovery vs in-network fault masking\n", rc.Spec.ID, rc.Spec.Title)
	fmt.Fprintf(&b, "offered load %.3f flits/node/cycle", rc.Spec.InjectionRate)
	for _, m := range rc.Modes {
		if m.FaultRouting.Enabled() {
			fmt.Fprintf(&b, "; masking policy %s", m.FaultRouting.WithDefaults())
			break
		}
	}
	b.WriteString("\n\n")
	for _, alg := range rc.Spec.Algorithms {
		fmt.Fprintf(&b, "%s\n%-10s", alg, "faultrate")
		for _, m := range rc.Modes {
			fmt.Fprintf(&b, " | %28s", m.Name)
		}
		fmt.Fprintf(&b, "\n%-10s", "")
		for range rc.Modes {
			fmt.Fprintf(&b, " | %6s %9s %8s", "deliv%", "thr fl/us", "lat us")
		}
		b.WriteString("\n")
		for ri, fr := range rc.Spec.FaultRates {
			fmt.Fprintf(&b, "%-10.1e", fr)
			for _, m := range rc.Modes {
				r := rc.Series[m.Name][alg][ri]
				fmt.Fprintf(&b, " | %6.2f %9.1f %8.2f", 100*r.DeliveredFraction, r.ThroughputFlitsPerUs, r.AvgLatencyUs)
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	last := len(rc.Spec.FaultRates) - 1
	fmt.Fprintf(&b, "masking gain over recovery alone at fault rate %.1e:\n", rc.Spec.FaultRates[last])
	for _, alg := range rc.Spec.Algorithms {
		rec := rc.Series["recovery"][alg][last]
		both := rc.Series["recovery+masking"][alg][last]
		fmt.Fprintf(&b, "  %-18s delivered %6.2f%% -> %6.2f%% (%+.2f); latency %8.2f -> %8.2f us; masked %d, misroutes %d\n",
			alg, 100*rec.DeliveredFraction, 100*both.DeliveredFraction,
			100*(both.DeliveredFraction-rec.DeliveredFraction),
			rec.AvgLatencyUs, both.AvgLatencyUs, both.MaskedFaults, both.MisrouteHops)
	}
	return b.String()
}

// Table renders the sweep: delivered fraction, throughput and latency per
// algorithm as the fault rate climbs, then a degradation summary at the
// highest fault rate.
func (rr ResilienceResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", rr.Spec.ID, rr.Spec.Title)
	fmt.Fprintf(&b, "claim: %s\n", rr.Spec.Claim)
	fmt.Fprintf(&b, "offered load %.3f flits/node/cycle; recovery on\n\n", rr.Spec.InjectionRate)
	algs := rr.Spec.Algorithms
	fmt.Fprintf(&b, "%-10s", "faultrate")
	for _, a := range algs {
		fmt.Fprintf(&b, " | %28s", a)
	}
	fmt.Fprintf(&b, "\n%-10s", "")
	for range algs {
		fmt.Fprintf(&b, " | %6s %9s %8s", "deliv%", "thr fl/us", "lat us")
	}
	b.WriteString("\n")
	for ri, fr := range rr.Spec.FaultRates {
		fmt.Fprintf(&b, "%-10.1e", fr)
		for _, a := range algs {
			r := rr.Series[a][ri]
			fmt.Fprintf(&b, " | %6.2f %9.1f %8.2f", 100*r.DeliveredFraction, r.ThroughputFlitsPerUs, r.AvgLatencyUs)
		}
		b.WriteString("\n")
	}
	last := len(rr.Spec.FaultRates) - 1
	fmt.Fprintf(&b, "\ndelivered fraction at fault rate %.1e:\n", rr.Spec.FaultRates[last])
	type row struct {
		alg  string
		frac float64
	}
	rows := make([]row, 0, len(algs))
	for _, a := range algs {
		rows = append(rows, row{a, rr.Series[a][last].DeliveredFraction})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].frac > rows[j].frac })
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-18s %6.2f%%\n", r.alg, 100*r.frac)
	}
	return b.String()
}
