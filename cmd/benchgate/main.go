// Command benchgate is the benchmark regression gate: it parses `go test
// -bench` output on stdin, compares every benchmark that appears in the
// committed baseline file, and exits nonzero when one regressed beyond the
// allowed fraction. With -update it rewrites the baseline from the
// measured numbers instead (run it on the reference machine and commit the
// result; see docs/testing.md for the procedure).
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkNetworkStep$' -benchtime 2000x . \
//	    | go run ./cmd/benchgate -baseline BENCH_baseline.json
//
// Baselines are wall-clock numbers and therefore machine-specific: the
// committed file records the reference machine's ns/op, and the gate's
// default tolerance (from the file's max_regress, default 0.10) guards
// like-for-like comparisons. On unrelated hardware use -max-regress to
// widen the band rather than committing that machine's numbers.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed reference file.
type Baseline struct {
	// Note documents where the numbers came from.
	Note string `json:"note,omitempty"`
	// MaxRegress is the allowed fractional slowdown (0.10 = 10%) unless
	// overridden on the command line.
	MaxRegress float64 `json:"max_regress,omitempty"`
	// Benchmarks maps the benchmark name (sub-benchmark path included,
	// GOMAXPROCS suffix stripped) to its reference measurement.
	Benchmarks map[string]Entry `json:"benchmarks"`
	// Speedups are relative gates: Name must run at least Min times
	// faster than Vs in the same measured output. Unlike absolute ns/op
	// baselines they are machine-portable, so they are configuration, not
	// measurement — -update preserves them verbatim.
	Speedups []Speedup `json:"speedups,omitempty"`
	// Absolutes are hard ceilings: Name's measured ns/op must stay under
	// MaxNsPerOp outright, independent of any baseline measurement. They
	// gate order-of-magnitude properties — "serving a cached result never
	// costs a simulation" — where the tolerable bound is orders above the
	// expected number, so one ceiling works on any machine. Like Speedups
	// they are configuration, not measurement; -update preserves them.
	Absolutes []Absolute `json:"absolutes,omitempty"`
}

// Absolute is one hard-ceiling gate.
type Absolute struct {
	Name       string  `json:"name"`
	MaxNsPerOp float64 `json:"max_ns_per_op"`
	// Note documents the property the ceiling protects.
	Note string `json:"note,omitempty"`
}

// Entry is one benchmark's reference numbers.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Speedup is one relative gate between two benchmarks of the same run.
type Speedup struct {
	// Name is the benchmark whose speedup is gated (e.g. the event-driven
	// sweep); Vs is its reference (e.g. the stepped one).
	Name string `json:"name"`
	Vs   string `json:"vs"`
	// Min is the required ratio Vs/Name of ns/op (2.0 = at least twice
	// as fast).
	Min float64 `json:"min_speedup"`
}

// benchLine matches one result line of `go test -bench -benchmem` output,
// e.g. "BenchmarkNetworkStep/no-probe-8  2000  1002 ns/op  0 B/op  0 allocs/op".
// The name is kept verbatim: a trailing -N can be the GOMAXPROCS
// decoration or part of a sub-benchmark name (SweepRunner/jobs-1), and
// only the baseline lookup can tell the two apart.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9.]+) allocs/op)?`)

func parse(r io.Reader) (map[string]Entry, error) {
	got := make(map[string]Entry)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchgate: bad ns/op in %q: %v", sc.Text(), err)
		}
		e := Entry{NsPerOp: ns}
		if m[3] != "" {
			e.AllocsPerOp, _ = strconv.ParseFloat(m[3], 64)
		}
		// Repeated runs of the same benchmark keep the last measurement.
		got[m[1]] = e
	}
	return got, sc.Err()
}

// isDigits reports whether s is one or more decimal digits.
func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// lookup finds the measured entry for a baseline name, accepting the
// GOMAXPROCS decoration (`name-8`) on the measured side. go test omits
// the decoration when GOMAXPROCS is 1, so both shapes occur in practice.
func lookup(got map[string]Entry, name string) (Entry, bool) {
	if e, ok := got[name]; ok {
		return e, true
	}
	for raw, e := range got {
		if strings.HasPrefix(raw, name+"-") && isDigits(raw[len(name)+1:]) {
			return e, true
		}
	}
	return Entry{}, false
}

// canonical strips the GOMAXPROCS decoration from a measured name so
// -update records machine-independent keys: a trailing -N is removed only
// when N is this process's GOMAXPROCS (the bench run and the update run
// happen on the same machine, piped together). go test omits the
// decoration entirely when GOMAXPROCS is 1, so nothing is stripped then —
// which also protects sub-benchmarks whose own names end in -1.
func canonical(name string) string {
	procs := runtime.GOMAXPROCS(0)
	if procs == 1 {
		return name
	}
	return strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
}

func run() error {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline file")
	maxRegress := flag.Float64("max-regress", 0, "allowed fractional slowdown (0 = use the baseline file's, default 0.10)")
	update := flag.Bool("update", false, "rewrite the baseline from the measured numbers instead of gating")
	note := flag.String("note", "", "with -update: note recorded in the baseline file")
	flag.Parse()

	got, err := parse(os.Stdin)
	if err != nil {
		return err
	}
	if len(got) == 0 {
		return fmt.Errorf("benchgate: no benchmark results on stdin")
	}

	if *update {
		canon := make(map[string]Entry, len(got))
		for name, e := range got {
			canon[canonical(name)] = e
		}
		base := Baseline{Note: *note, MaxRegress: 0.10, Benchmarks: canon}
		if old, err := readBaseline(*baselinePath); err == nil {
			if *note == "" {
				base.Note = old.Note
			}
			if old.MaxRegress > 0 {
				base.MaxRegress = old.MaxRegress
			}
			base.Speedups = old.Speedups
			base.Absolutes = old.Absolutes
			// Keep entries the current run did not re-measure.
			for name, e := range old.Benchmarks {
				if _, ok := lookup(got, name); !ok {
					base.Benchmarks[name] = e
				}
			}
		}
		f, err := os.Create(*baselinePath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(base); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("benchgate: wrote %d baselines to %s\n", len(got), *baselinePath)
		return nil
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		return err
	}
	allowed := base.MaxRegress
	if *maxRegress > 0 {
		allowed = *maxRegress
	}
	if allowed <= 0 {
		allowed = 0.10
	}

	failed, missing := gate(base, got, allowed, os.Stdout)
	if missing > 0 {
		return fmt.Errorf("benchgate: %d baseline benchmark(s) not present in the measured output", missing)
	}
	if failed > 0 {
		return fmt.Errorf("benchgate: %d benchmark(s) regressed more than the allowed band", failed)
	}
	return nil
}

// gate compares the measured entries against the baseline — baselined
// ns/op within the allowed band, then the hard ceilings, then the relative
// speedup gates — writing one status line per comparison. It returns how
// many comparisons failed and how many baselined benchmarks were missing
// from the measurement.
func gate(base Baseline, got map[string]Entry, allowed float64, w io.Writer) (failed, missing int) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		ref := base.Benchmarks[name]
		cur, ok := lookup(got, name)
		if !ok {
			missing++
			fmt.Fprintf(w, "MISS  %-50s baseline %.1f ns/op, not measured\n", name, ref.NsPerOp)
			continue
		}
		ratio := cur.NsPerOp / ref.NsPerOp
		status := "ok  "
		if ratio > 1+allowed {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%s  %-50s %9.1f ns/op vs baseline %9.1f (%+.1f%%)\n",
			status, name, cur.NsPerOp, ref.NsPerOp, (ratio-1)*100)
	}
	for _, ab := range base.Absolutes {
		cur, ok := lookup(got, ab.Name)
		if !ok {
			missing++
			fmt.Fprintf(w, "MISS  %-50s ceiling %.0f ns/op, not measured\n", ab.Name, ab.MaxNsPerOp)
			continue
		}
		status := "ok  "
		if cur.NsPerOp > ab.MaxNsPerOp {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%s  %-50s %9.1f ns/op vs ceiling %9.0f\n",
			status, ab.Name, cur.NsPerOp, ab.MaxNsPerOp)
	}
	for _, sp := range base.Speedups {
		cur, okCur := lookup(got, sp.Name)
		ref, okRef := lookup(got, sp.Vs)
		if !okCur || !okRef {
			missing++
			fmt.Fprintf(w, "MISS  %-50s speedup gate needs both measured\n", sp.Name+" vs "+sp.Vs)
			continue
		}
		ratio := ref.NsPerOp / cur.NsPerOp
		status := "ok  "
		if ratio < sp.Min {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%s  %-50s %.2fx speedup, want >= %.2fx\n",
			status, sp.Name+" vs "+sp.Vs, ratio, sp.Min)
	}
	return failed, missing
}

func readBaseline(path string) (Baseline, error) {
	var base Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return base, fmt.Errorf("benchgate: parsing %s: %v", path, err)
	}
	if len(base.Benchmarks) == 0 {
		return base, fmt.Errorf("benchgate: %s has no benchmarks", path)
	}
	return base, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
