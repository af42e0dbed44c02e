package sim

import (
	"testing"

	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
	"turnmodel/internal/vc"
)

// TestMetricsDoNotPerturbResults is the observability layer's core
// contract: attaching the collector must not change what the simulator
// does. Every Result scalar must be bit-identical with metrics on and off,
// on both engines.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	base := meshCfg(t, "west-first", 0.05)
	plain := Run(base)

	on := base
	on.Metrics = true
	instrumented := Run(on)
	if instrumented.Metrics == nil {
		t.Fatal("Metrics=true produced no snapshot")
	}
	scalars := instrumented
	scalars.Metrics = nil
	if scalars != plain {
		t.Errorf("collector perturbed the run:\noff: %+v\non:  %+v", plain, scalars)
	}

	mesh := topology.NewMesh2D(8, 8)
	dy, err := vc.New("double-y", mesh)
	if err != nil {
		t.Fatal(err)
	}
	vcCfg := VCConfig{
		Routing: dy,
		RunParams: RunParams{
			Pattern:       traffic.Uniform{Topo: mesh},
			InjectionRate: 0.05,
			WarmupCycles:  2000,
			MeasureCycles: 5000,
			Seed:          11,
		},
	}
	vplain := RunVC(vcCfg)
	vcCfg.Metrics = true
	von := RunVC(vcCfg)
	if von.Metrics == nil {
		t.Fatal("VC Metrics=true produced no snapshot")
	}
	vscalars := von
	vscalars.Metrics = nil
	if vscalars != vplain {
		t.Errorf("collector perturbed the VC run:\noff: %+v\non:  %+v", vplain, vscalars)
	}
}

// TestMetricsSnapshotSane checks the snapshot attached to a Result is
// internally consistent with the measurement protocol.
func TestMetricsSnapshotSane(t *testing.T) {
	cfg := meshCfg(t, "west-first", 0.05)
	cfg.Metrics = true
	res := Run(cfg)
	s := res.Metrics
	if s == nil {
		t.Fatal("no snapshot")
	}
	if s.WindowCycles < cfg.MeasureCycles {
		t.Errorf("window %d cycles, measure phase is %d (plus drain)", s.WindowCycles, cfg.MeasureCycles)
	}
	if s.PacketsDelivered < res.Packets {
		t.Errorf("snapshot saw %d deliveries, result measured %d packets", s.PacketsDelivered, res.Packets)
	}
	if !(s.LatencyP50Us <= s.LatencyP95Us && s.LatencyP95Us <= s.LatencyP99Us) {
		t.Errorf("percentiles out of order: %v %v %v", s.LatencyP50Us, s.LatencyP95Us, s.LatencyP99Us)
	}
	if s.LatencyP50Us <= 0 {
		t.Error("p50 is zero with traffic flowing")
	}
	if s.MaxChannelUtil <= 0 || s.MaxChannelUtil > 1 {
		t.Errorf("max util %v", s.MaxChannelUtil)
	}
	if s.MeshWidth != 8 || s.MeshHeight != 8 {
		t.Errorf("mesh dims %dx%d", s.MeshWidth, s.MeshHeight)
	}
	if len(s.OccupancyFlits) == 0 {
		t.Error("occupancy trace empty — warmup transient not recorded")
	}
	// The delay split must be consistent with the average latency Result
	// reports (both sides round, so allow a loose tolerance).
	if sum := s.AvgQueueDelayUs + s.AvgNetDelayUs; sum > 2*res.AvgLatencyUs || sum <= 0 {
		t.Errorf("delay split %v inconsistent with avg latency %v", sum, res.AvgLatencyUs)
	}
}

// TestRunnerMetricsPlan checks Options.Metrics flows through to the point
// results while leaving scalars untouched.
func TestRunnerMetricsPlan(t *testing.T) {
	plain, _, err := runPlan(quickPlan(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	plan := quickPlan(2, nil)
	plan.Metrics = true
	on, rep, err := runPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Config.Metrics {
		t.Error("report does not echo Metrics flag")
	}
	for fi := range on {
		for name, series := range on[fi].Series {
			for pi, r := range series {
				if r.Metrics == nil {
					t.Fatalf("%s/%s point %d has no snapshot", on[fi].Spec.ID, name, pi)
				}
				r.Metrics = nil
				if r != plain[fi].Series[name][pi] {
					t.Errorf("%s/%s point %d scalars changed with metrics on", on[fi].Spec.ID, name, pi)
				}
			}
		}
	}
}
