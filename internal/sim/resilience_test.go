package sim

import (
	"reflect"
	"strings"
	"testing"

	"turnmodel/internal/fault"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// quickResilience is a scaled-down resilience spec: a small mesh, two
// algorithms, and fault rates high enough that faults, aborts and drops
// all happen inside short windows.
func quickResilience() ResilienceSpec {
	return ResilienceSpec{
		ID:            "quick-resilience",
		Title:         "scaled-down resilience sweep for tests",
		Claim:         "test fixture",
		NewTopology:   func() topology.Topology { return topology.NewMesh2D(8, 8) },
		Algorithms:    []string{"xy", "west-first"},
		NewPattern:    func(t topology.Topology) traffic.Pattern { return traffic.Uniform{Topo: t} },
		InjectionRate: 0.04,
		FaultRates:    []float64{0, 1e-6, 4e-6},
	}
}

func TestResilienceCatalog(t *testing.T) {
	figs := ResilienceFigures()
	if len(figs) < 2 {
		t.Fatalf("want at least 2 resilience figures, have %d", len(figs))
	}
	seen := map[string]bool{}
	for _, s := range figs {
		if seen[s.ID] {
			t.Errorf("duplicate resilience ID %q", s.ID)
		}
		seen[s.ID] = true
		if len(s.Algorithms) < 2 || len(s.FaultRates) < 2 {
			t.Errorf("%s: degenerate spec (%d algorithms, %d rates)", s.ID, len(s.Algorithms), len(s.FaultRates))
		}
		if s.FaultRates[0] != 0 {
			t.Errorf("%s: first fault rate is %g, want 0 (the fault-free baseline)", s.ID, s.FaultRates[0])
		}
		got, ok := ResilienceByID(s.ID)
		if !ok || got.ID != s.ID {
			t.Errorf("ResilienceByID(%q) = %v, %v", s.ID, got.ID, ok)
		}
	}
	if _, ok := ResilienceByID("no-such-figure"); ok {
		t.Error("ResilienceByID accepted an unknown ID")
	}
}

// TestResilienceDeterministicAcrossJobs pins the bit-identical guarantee:
// the same spec and seed produce deeply equal results and tables for any
// worker count.
func TestResilienceDeterministicAcrossJobs(t *testing.T) {
	spec := quickResilience()
	serial, err := runResilience(spec, 400, 1200, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runResilience(spec, 400, 1200, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Series, parallel.Series) {
		t.Errorf("series differ between 1 and 6 workers:\n%+v\n%+v", serial.Series, parallel.Series)
	}
	if serial.Table() != parallel.Table() {
		t.Errorf("tables differ:\n%s\n%s", serial.Table(), parallel.Table())
	}
}

// TestResilienceSweepAccounting checks the sweep end to end on a small
// fixture: no run deadlocks under recovery, the fault-free baseline drops
// nothing, faulted cells see fault events, and every delivered fraction
// is a valid probability.
func TestResilienceSweepAccounting(t *testing.T) {
	spec := quickResilience()
	rr, err := runResilience(spec, 1000, 6000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range spec.Algorithms {
		series := rr.Series[alg]
		if len(series) != len(spec.FaultRates) {
			t.Fatalf("%s: %d points, want %d", alg, len(series), len(spec.FaultRates))
		}
		for ri, res := range series {
			if res.Deadlocked {
				t.Errorf("%s at rate %g: deadlocked under recovery", alg, spec.FaultRates[ri])
			}
			if res.DeliveredFraction < 0 || res.DeliveredFraction > 1 {
				t.Errorf("%s at rate %g: delivered fraction %g", alg, spec.FaultRates[ri], res.DeliveredFraction)
			}
			if res.Delivered <= 0 {
				t.Errorf("%s at rate %g: delivered %d packets", alg, spec.FaultRates[ri], res.Delivered)
			}
		}
		if series[0].Dropped != 0 || series[0].FaultEvents != 0 {
			t.Errorf("%s fault-free baseline: dropped=%d faults=%d, want 0/0", alg, series[0].Dropped, series[0].FaultEvents)
		}
		last := series[len(series)-1]
		if last.FaultEvents == 0 {
			t.Errorf("%s at the highest rate: no fault events; sweep exercised nothing", alg)
		}
	}
	// The paper's qualitative claim on this fixture: xy has exactly one
	// path per pair, so permanent faults cost it more deliveries than the
	// adaptive algorithm. The seeds are fixed, so this is deterministic.
	last := len(spec.FaultRates) - 1
	if xy, wf := rr.Series["xy"][last], rr.Series["west-first"][last]; xy.DeliveredFraction >= wf.DeliveredFraction {
		t.Errorf("xy delivered %.4f >= west-first %.4f at the highest fault rate; adaptivity should win",
			xy.DeliveredFraction, wf.DeliveredFraction)
	}
	table := rr.Table()
	for _, want := range []string{"quick-resilience", "deliv%", "xy", "west-first", "delivered fraction"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

// TestRunPlanFaultDeterminism extends the parallel-matches-serial
// guarantee to faulted plans with metrics collection: fault histories are
// a pure function of job identity, so worker count changes nothing —
// including the metrics snapshots' window counters.
func TestRunPlanFaultDeterminism(t *testing.T) {
	mk := func(jobs int) Options {
		p := quickPlan(jobs, nil)
		p.Metrics = true
		p.FaultPlan = fault.Plan{Rate: 2e-6, Repair: 400}
		p.Recovery = fault.Recovery{Enabled: true, StallCycles: 300}
		return p
	}
	serial, serialRep, err := runPlan(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, parallelRep, err := runPlan(mk(8))
	if err != nil {
		t.Fatal(err)
	}
	figuresEqual(t, serial, parallel)
	for si := range serialRep.Figures {
		for ai := range serialRep.Figures[si].Series {
			a, b := serialRep.Figures[si].Series[ai], parallelRep.Figures[si].Series[ai]
			for pi := range a.Points {
				// WallMillis is wall-clock and legitimately differs;
				// everything measured must not.
				if !reflect.DeepEqual(a.Points[pi].Result, b.Points[pi].Result) || a.Points[pi].Seed != b.Points[pi].Seed {
					t.Errorf("figure %s series %s point %d: report results differ",
						serialRep.Figures[si].ID, a.Algorithm, pi)
				}
			}
		}
	}
	if serialRep.Config.FaultRate != 2e-6 || !serialRep.Config.Recovery {
		t.Errorf("report config does not echo the fault workload: %+v", serialRep.Config)
	}
}

// TestRunPlanFaultFreeMatchesBaseline pins the archived tables: a plan
// with an empty fault plan and recovery off must produce byte-identical
// tables to one that predates the fault subsystem entirely (the zero
// value of the new fields changes nothing).
func TestRunPlanFaultFreeMatchesBaseline(t *testing.T) {
	base, _, err := runPlan(quickPlan(4, nil))
	if err != nil {
		t.Fatal(err)
	}
	withZero := quickPlan(4, nil)
	withZero.FaultPlan = fault.Plan{}
	withZero.Recovery = fault.Recovery{}
	again, _, err := runPlan(withZero)
	if err != nil {
		t.Fatal(err)
	}
	figuresEqual(t, base, again)
	for _, fr := range base {
		for alg, series := range fr.Series {
			for _, res := range series {
				if res.Dropped != 0 || res.Aborted != 0 || res.Retried != 0 || res.FaultEvents != 0 {
					t.Errorf("%s/%s: fault-free run has fault accounting %+v", fr.Spec.ID, alg, res)
				}
				if res.DeliveredFraction != 1 {
					t.Errorf("%s/%s: fault-free delivered fraction %g, want 1", fr.Spec.ID, alg, res.DeliveredFraction)
				}
			}
		}
	}
}
