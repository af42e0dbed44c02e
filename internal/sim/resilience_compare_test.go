package sim

import (
	"reflect"
	"strings"
	"testing"

	"turnmodel/internal/fault"
)

func TestResilienceModesCatalog(t *testing.T) {
	modes := ResilienceModes()
	if len(modes) != 3 {
		t.Fatalf("%d modes, want 3", len(modes))
	}
	byName := map[string]ResilienceMode{}
	for _, m := range modes {
		byName[m.Name] = m
	}
	if m := byName["recovery"]; !m.Recovery || m.FaultRouting.Enabled() {
		t.Errorf("recovery mode misconfigured: %+v", m)
	}
	if m := byName["masking"]; m.Recovery || !m.FaultRouting.Enabled() {
		t.Errorf("masking mode misconfigured: %+v", m)
	}
	if m := byName["recovery+masking"]; !m.Recovery || !m.FaultRouting.Enabled() {
		t.Errorf("recovery+masking mode misconfigured: %+v", m)
	}
}

// TestResilienceCompareDeterministicAcrossJobs extends the bit-identical
// guarantee to the mode comparison: any worker count, same results and
// tables.
func TestResilienceCompareDeterministicAcrossJobs(t *testing.T) {
	spec := quickResilience()
	serial, err := runResilienceCompare(spec, 400, 1200, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runResilienceCompare(spec, 400, 1200, 3, 6)
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

// TestResilienceCompareEndToEnd runs the scaled-down comparison and checks
// the semantics of each mode: the recovery series reproduces the
// recovery-only sweep bit-identically (common random numbers across
// modes), masking actually
// masks at faulted rates, and adding masking to recovery never hurts — and
// strictly helps the adaptive algorithm at the highest rate.
func TestResilienceCompareEndToEnd(t *testing.T) {
	spec := quickResilience()
	rc, err := runResilienceCompare(spec, 1000, 6000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := runResilience(spec, 1000, 6000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rc.Series["recovery"], baseline.Series) {
		t.Error("recovery-only series does not reproduce the recovery-only sweep")
	}
	last := len(spec.FaultRates) - 1
	for _, alg := range spec.Algorithms {
		for ri := range spec.FaultRates {
			for _, mode := range rc.Modes {
				res := rc.Series[mode.Name][alg][ri]
				if res.DeliveredFraction < 0 || res.DeliveredFraction > 1 {
					t.Errorf("%s/%s rate %g: delivered fraction %g", mode.Name, alg, spec.FaultRates[ri], res.DeliveredFraction)
				}
				if ri == 0 && (res.MaskedFaults != 0 || res.MisrouteHops != 0) {
					t.Errorf("%s/%s fault-free: masked=%d misroutes=%d, want 0/0", mode.Name, alg, res.MaskedFaults, res.MisrouteHops)
				}
				if !mode.FaultRouting.Enabled() && res.MaskedFaults != 0 {
					t.Errorf("%s/%s: masking counted with fault routing off", mode.Name, alg)
				}
			}
		}
	}
	// At the highest rate masking must actually steer the adaptive
	// algorithm. (xy never masks: with exactly one candidate per hop no
	// proper nonempty subset exists, so the wrapper always falls through.)
	if got := rc.Series["recovery+masking"]["west-first"][last].MaskedFaults; got == 0 {
		t.Errorf("west-first: no masked decisions at rate %g", spec.FaultRates[last])
	}
	// The acceptance claim on the adaptive algorithm: in-network masking on
	// top of recovery delivers strictly more than recovery alone at the
	// highest fault rate. Seeds are fixed; this is deterministic.
	rec := rc.Series["recovery"]["west-first"][last].DeliveredFraction
	both := rc.Series["recovery+masking"]["west-first"][last].DeliveredFraction
	if both <= rec {
		t.Errorf("west-first at rate %g: recovery+masking delivered %.4f <= recovery %.4f",
			spec.FaultRates[last], both, rec)
	}
	table := rc.Table()
	for _, want := range []string{"recovery vs in-network fault masking", "recovery+masking", "masking gain", "khop(r=2)+misroute4"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

// TestRunPlanFaultRoutingDeterminism: a faulted sweep with fault-aware
// routing enabled stays bit-identical across worker counts, and the
// report echoes the policy (schema v4 fields).
func TestRunPlanFaultRoutingDeterminism(t *testing.T) {
	mk := func(jobs int) Options {
		p := quickPlan(jobs, nil)
		p.FaultPlan = fault.Plan{Rate: 2e-6, Repair: 400}
		p.Recovery = fault.Recovery{Enabled: true, StallCycles: 300}
		p.FaultRouting = fault.RoutingPolicy{Visibility: fault.VisibilityKHop, MisrouteLimit: 4}
		return p
	}
	serial, serialRep, err := runPlan(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := runPlan(mk(8))
	if err != nil {
		t.Fatal(err)
	}
	figuresEqual(t, serial, parallel)
	cfg := serialRep.Config
	if cfg.FaultRouting != "khop" || cfg.FaultRadius != fault.DefaultRadius || cfg.MisrouteLimit != 4 {
		t.Errorf("report config does not echo the routing policy: %+v", cfg)
	}
}
