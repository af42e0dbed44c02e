package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Full     bool   `json:"full,omitempty"`
	// Correct is false when any output failed its check or the run itself
	// was invalid; Invalid says why.
	Correct   bool   `json:"correct"`
	Invalid   string `json:"invalid,omitempty"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics holds every metric the run measured, by catalogue name; a
	// metric the workload does not produce is absent.
	Metrics map[string]float64 `json:"metrics"`
	// Samples is the sample count behind each percentile metric.
	Samples map[string]int `json:"samples,omitempty"`
	// Checks are the correctness lines printed beside the speeds.
	Checks []string  `json:"checks"`
	Ledger []spanRow `json:"ledger,omitempty"`
	// Ladder is the rate ladder of the traced serve-mixed run.
	Ladder []ladderRung `json:"ladder,omitempty"`
}

func newRunResult(cfg runConfig) *runResult {
	return &runResult{
		Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace, Full: cfg.Full,
		Metrics: map[string]float64{}, Samples: map[string]int{},
	}
}

func (r *runResult) checkf(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// contractLine is the last line of a run's standard output: the result in
// the form the benchmark's driver reads. An untraced run reports every
// end-to-end metric (a missing one is an error: every workload defines all
// of them), a traced run every per-layer metric, with 0 for a layer the
// workload does not touch.
func (r *runResult) contractLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok && !r.Trace {
			return nil, fmt.Errorf("workload %s did not produce end-to-end metric %s", r.Workload, d.Name)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// print renders the run for a reader: every metric by name with its unit
// and sample count, the correctness checks, and for a traced run the
// ledger.
func (r *runResult) print(w io.Writer) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d)\n", r.Workload, mode, r.Seed)
	printMetrics := func(defs []metricDef) {
		for _, d := range defs {
			v, ok := r.Metrics[d.Name]
			if !ok {
				continue
			}
			n := ""
			if c, ok := r.Samples[d.Name]; ok {
				n = fmt.Sprintf("  (n=%d)", c)
			}
			fmt.Fprintf(w, "  %-34s %16.6g %-9s%s\n", d.Name, v, d.Unit, n)
		}
	}
	printMetrics(endToEnd)
	if r.Trace {
		printMetrics(perLayer)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  %s\n", c)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	if r.Invalid != "" {
		fmt.Fprintf(w, "  INVALID RUN: %s\n", r.Invalid)
	}
	if len(r.Ladder) > 0 {
		fmt.Fprintf(w, "  rate ladder (fresh jobs):\n")
		for _, g := range r.Ladder {
			fmt.Fprintf(w, "    %6.1f jobs/s  p50 %8.2f ms  p%g %8.2f ms (n=%d)  backlog at end %d  failed %d\n",
				g.Rate, g.P50Ms, g.TailPercentile, g.TailMs, g.Samples, g.BacklogEnd, g.Failed)
		}
	}
	if len(r.Ledger) > 0 {
		printLedger(w, r.Ledger)
	}
}
