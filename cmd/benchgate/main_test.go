package main

import (
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: turnmodel
BenchmarkNetworkStep/no-probe-8          2000      1002 ns/op        0 B/op        0 allocs/op
BenchmarkNetworkStep/no-probe-ftroute-8  2000      1010.5 ns/op      0 B/op        0 allocs/op
BenchmarkNetworkStep/probe-8             2000      1840 ns/op      120 B/op        3 allocs/op
BenchmarkSweepRunner/jobs-1                 79  14900000 ns/op
BenchmarkSweepRunner/jobs-1                 80  14800000 ns/op
PASS
ok      turnmodel       12.3s
`
	got, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	// Names stay verbatim at parse time; the decoration is resolved by
	// lookup against the baseline's canonical names.
	want := map[string]Entry{
		"BenchmarkNetworkStep/no-probe-8":         {NsPerOp: 1002},
		"BenchmarkNetworkStep/no-probe-ftroute-8": {NsPerOp: 1010.5},
		"BenchmarkNetworkStep/probe-8":            {NsPerOp: 1840, AllocsPerOp: 3},
		"BenchmarkSweepRunner/jobs-1":             {NsPerOp: 14800000}, // last run wins
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}

	for baseName, wantNs := range map[string]float64{
		"BenchmarkNetworkStep/no-probe": 1002,     // decorated measurement
		"BenchmarkSweepRunner/jobs-1":   14800000, // undecorated (GOMAXPROCS=1 run)
	} {
		e, ok := lookup(got, baseName)
		if !ok || e.NsPerOp != wantNs {
			t.Errorf("lookup(%q) = %+v, %v; want %.0f ns/op", baseName, e, ok, wantNs)
		}
	}
	if _, ok := lookup(got, "BenchmarkNetworkStep/no-pro"); ok {
		t.Error("lookup matched a name prefix that is not a GOMAXPROCS decoration")
	}
}

func TestLookupDecoratedSubBenchmark(t *testing.T) {
	// jobs-4 measured on an 8-proc machine: the raw name carries both the
	// sub-benchmark's own -4 and the decoration's -8.
	got := map[string]Entry{"BenchmarkSweepRunner/jobs-4-8": {NsPerOp: 32000000}}
	if e, ok := lookup(got, "BenchmarkSweepRunner/jobs-4"); !ok || e.NsPerOp != 32000000 {
		t.Fatalf("lookup(jobs-4) = %+v, %v", e, ok)
	}
	if _, ok := lookup(got, "BenchmarkSweepRunner/jobs"); ok {
		t.Error("jobs matched jobs-4-8: -4-8 is not a single decoration")
	}
}

func TestGate(t *testing.T) {
	base := Baseline{
		Benchmarks: map[string]Entry{
			"BenchmarkA": {NsPerOp: 1000},
			"BenchmarkB": {NsPerOp: 1000},
			"BenchmarkC": {NsPerOp: 1000},
		},
		Speedups: []Speedup{
			{Name: "BenchmarkA", Vs: "BenchmarkB", Min: 2.0},
		},
	}
	got := map[string]Entry{
		"BenchmarkA": {NsPerOp: 1050}, // within the 10% band
		"BenchmarkB": {NsPerOp: 1200}, // regressed
		// BenchmarkC missing
		// speedup B/A = 1200/1050 = 1.14x < 2.0: fails too
	}
	var out strings.Builder
	failed, missing := gate(base, got, 0.10, &out)
	if failed != 2 || missing != 1 {
		t.Fatalf("gate: failed=%d missing=%d, want 2, 1\n%s", failed, missing, out.String())
	}
	for _, want := range []string{
		"ok    BenchmarkA",
		"FAIL  BenchmarkB",
		"MISS  BenchmarkC",
		"FAIL  BenchmarkA vs BenchmarkB",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestGateAbsolute(t *testing.T) {
	base := Baseline{
		Benchmarks: map[string]Entry{},
		Absolutes: []Absolute{
			{Name: "BenchmarkCached", MaxNsPerOp: 5e6},
		},
	}

	// Under the ceiling (decorated measurement resolves): passes.
	var out strings.Builder
	got := map[string]Entry{"BenchmarkCached-8": {NsPerOp: 2e5}}
	if failed, missing := gate(base, got, 0.10, &out); failed != 0 || missing != 0 {
		t.Fatalf("warm: failed=%d missing=%d\n%s", failed, missing, out.String())
	}

	// Over the ceiling — e.g. cached serving regressed to simulation.
	out.Reset()
	got = map[string]Entry{"BenchmarkCached": {NsPerOp: 2e7}}
	if failed, _ := gate(base, got, 0.10, &out); failed != 1 {
		t.Fatalf("regressed: failed=%d, want 1\n%s", failed, out.String())
	}
	if !strings.Contains(out.String(), "FAIL  BenchmarkCached") {
		t.Errorf("output missing FAIL:\n%s", out.String())
	}

	// Not measured at all counts as missing, so CI cannot silently drop
	// the benchmark from its -bench regex.
	out.Reset()
	if failed, missing := gate(base, map[string]Entry{}, 0.10, &out); failed != 0 || missing != 1 {
		t.Fatalf("unmeasured: failed=%d missing=%d, want missing=1\n%s", failed, missing, out.String())
	}
}

func TestGateSpeedup(t *testing.T) {
	base := Baseline{
		Benchmarks: map[string]Entry{},
		Speedups: []Speedup{
			{Name: "BenchmarkFast", Vs: "BenchmarkSlow", Min: 2.0},
		},
	}
	got := map[string]Entry{
		"BenchmarkFast-8": {NsPerOp: 400}, // decorated measurement resolves
		"BenchmarkSlow":   {NsPerOp: 1000},
	}

	// 2.5x >= 2.0x passes.
	var out strings.Builder
	if failed, missing := gate(base, got, 0.10, &out); failed != 0 || missing != 0 {
		t.Fatalf("failed=%d missing=%d, want pass\n%s", failed, missing, out.String())
	}
	if !strings.Contains(out.String(), "2.50x speedup") {
		t.Errorf("output missing ratio:\n%s", out.String())
	}

	// 1.5x < 2.0x fails.
	out.Reset()
	got["BenchmarkFast-8"] = Entry{NsPerOp: 667}
	if failed, missing := gate(base, got, 0.10, &out); failed != 1 || missing != 0 {
		t.Fatalf("slow: failed=%d missing=%d, want failed=1\n%s", failed, missing, out.String())
	}

	// A speedup gate whose legs were not measured counts as missing —
	// the CI bench regex must keep covering both.
	out.Reset()
	if failed, missing := gate(base, map[string]Entry{}, 0.10, &out); failed != 0 || missing != 1 {
		t.Fatalf("unmeasured: failed=%d missing=%d, want missing=1\n%s", failed, missing, out.String())
	}
}
