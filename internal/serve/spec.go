// Package serve is the simulation-as-a-service layer behind cmd/turnserved:
// sweep jobs are submitted as JSON specs over HTTP, executed on the
// sim.Runner streaming entry point, broadcast point by point over
// server-sent events, and archived — whole finished reports — in the same
// content-addressed cache the runner uses for individual points. Submitting
// a spec the server has already finished returns the archived report
// byte-identically without simulating anything.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"turnmodel/internal/fault"
	"turnmodel/internal/sim"
	"turnmodel/internal/simcache"
)

// JobSpec is the wire form of one sweep job. The zero value of every field
// selects the same default the turnsweep CLI uses, so a spec naming only
// figure IDs reproduces the archived tables.
//
// Jobs steers execution (worker pool width) and is excluded from the job's
// content address: results are bit-identical at every value, so two specs
// differing only there denote the same report. Shards is accepted and
// ignored.
type JobSpec struct {
	// Figures are figure sweep IDs ("figure13", "extension-hex", ...).
	Figures []string `json:"figures,omitempty"`
	// Resilience are resilience sweep IDs ("resilience-mesh", ...).
	Resilience []string `json:"resilience,omitempty"`
	// Compare runs the resilience sweeps once per fault-handling mode
	// (recovery / masking / recovery+masking).
	Compare bool `json:"compare,omitempty"`
	// Rates and Algorithms, when set, override every figure spec's sweep
	// axes (resilience specs keep their own).
	Rates      []float64 `json:"rates,omitempty"`
	Algorithms []string  `json:"algorithms,omitempty"`
	// WarmupCycles and MeasureCycles bound each point's run; zero selects
	// the sim defaults (20000/40000).
	WarmupCycles  int64 `json:"warmup_cycles,omitempty"`
	MeasureCycles int64 `json:"measure_cycles,omitempty"`
	// Seed is the base seed; SeedMode is "paired" (default; common random
	// numbers, matches the archived tables) or "hash" (independent
	// streams per point).
	Seed     int64  `json:"seed,omitempty"`
	SeedMode string `json:"seed_mode,omitempty"`
	// Metrics attaches collector snapshots to every point.
	Metrics bool `json:"metrics,omitempty"`
	// FaultRate/FaultRepair/Recovery configure the figure points' fault
	// workload (resilience cells derive their own fault plans).
	FaultRate   float64 `json:"fault_rate,omitempty"`
	FaultRepair int64   `json:"fault_repair,omitempty"`
	Recovery    bool    `json:"recovery,omitempty"`
	// Jobs steers execution only; see the type comment.
	Jobs int `json:"jobs,omitempty"`
	// Shards is accepted so that older clients are not rejected for an
	// unknown field, and ignored: the simulator steps one spatial domain.
	// It never enters the content address.
	//
	// Deprecated: it has no effect.
	Shards int `json:"shards,omitempty"`
	// TimeoutS is the client's per-job deadline in seconds, capped by the
	// server's configured job timeout (a client may ask for less time than
	// the server allows, never more). Execution-only: excluded from the
	// content address like Jobs.
	TimeoutS float64 `json:"timeout_s,omitempty"`
}

// ParseSpec decodes a JobSpec from JSON, rejecting unknown fields (a typo
// like "figuers" must not silently run the default job) and trailing data.
func ParseSpec(r io.Reader) (JobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("decoding job spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return JobSpec{}, fmt.Errorf("trailing data after job spec")
	}
	return spec, nil
}

// Validate resolves every referenced ID and rejects empty or inconsistent
// specs before any simulation runs.
func (s JobSpec) Validate() error {
	if len(s.Figures) == 0 && len(s.Resilience) == 0 {
		return fmt.Errorf("job spec names no figures and no resilience sweeps")
	}
	for _, id := range s.Figures {
		if _, ok := sim.FigureByID(id); !ok {
			return fmt.Errorf("unknown figure %q", id)
		}
	}
	for _, id := range s.Resilience {
		if _, ok := sim.ResilienceByID(id); !ok {
			return fmt.Errorf("unknown resilience figure %q", id)
		}
	}
	switch s.SeedMode {
	case "", "paired", "hash":
	default:
		return fmt.Errorf("unknown seed_mode %q (want paired or hash)", s.SeedMode)
	}
	if s.Compare && len(s.Resilience) == 0 {
		return fmt.Errorf("compare requires resilience sweeps")
	}
	for _, r := range s.Rates {
		if r <= 0 {
			return fmt.Errorf("rate %g out of range", r)
		}
	}
	if s.WarmupCycles < 0 || s.MeasureCycles < 0 || s.FaultRate < 0 || s.FaultRepair < 0 {
		return fmt.Errorf("negative cycle count or fault rate")
	}
	if s.TimeoutS < 0 {
		return fmt.Errorf("negative timeout_s")
	}
	return nil
}

// deadline resolves the job's effective deadline against the server cap:
// the spec's timeout_s when set (clamped to the cap), else the cap itself.
// Zero means no deadline.
func (s JobSpec) deadline(cap time.Duration) time.Duration {
	want := time.Duration(s.TimeoutS * float64(time.Second))
	if want <= 0 {
		return cap
	}
	if cap > 0 && want > cap {
		return cap
	}
	return want
}

// Key is the job's content address: the canonical-JSON hash of the spec
// with the execution-only fields cleared, bound to the engine and report
// schema versions. Two specs with equal keys always denote byte-identical
// reports, which is what lets the server hand back an archived report for
// a resubmitted job without running anything.
func (s JobSpec) Key() (string, error) {
	id := s
	id.Jobs, id.Shards, id.TimeoutS = 0, 0, 0
	return simcache.Key(map[string]any{
		"kind":   "turnserved-job",
		"engine": sim.EngineVersion,
		"schema": sim.ReportSchemaVersion,
		"spec":   id,
	})
}

// Options lowers the spec onto the runner. The caller wires in the
// streaming callback, cache and probe.
func (s JobSpec) Options() (sim.Options, error) {
	if err := s.Validate(); err != nil {
		return sim.Options{}, err
	}
	opts := sim.Options{
		CompareModes:  s.Compare,
		WarmupCycles:  s.WarmupCycles,
		MeasureCycles: s.MeasureCycles,
		Seed:          s.Seed,
		Jobs:          s.Jobs,
		Metrics:       s.Metrics,
		FaultPlan:     fault.Plan{Rate: s.FaultRate, Repair: s.FaultRepair},
		Recovery:      fault.Recovery{Enabled: s.Recovery},
	}
	if s.SeedMode == "hash" {
		opts.SeedFn = sim.HashSeed
	}
	for _, id := range s.Figures {
		spec, _ := sim.FigureByID(id)
		if len(s.Rates) > 0 {
			spec.Rates = append([]float64(nil), s.Rates...)
		}
		if len(s.Algorithms) > 0 {
			spec.Algorithms = append([]string(nil), s.Algorithms...)
		}
		opts.Specs = append(opts.Specs, spec)
	}
	for _, id := range s.Resilience {
		spec, _ := sim.ResilienceByID(id)
		opts.Resilience = append(opts.Resilience, spec)
	}
	return opts, nil
}
