package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"turnmodel/internal/sim"
)

// goldenSeed is the seed whose results are pinned under golden/.
const goldenSeed = 1

// digest is the identity of one point's simulated statistics: the SHA-256
// of the Result's JSON. A Result carries no host-time field, so equal
// digests mean every simulated statistic is identical.
func digest(r sim.Result) string {
	raw, err := json.Marshal(r)
	if err != nil {
		panic(err) // a Result is plain data
	}
	h := sha256.Sum256(raw)
	return hex.EncodeToString(h[:])
}

func digests(results []sim.Result) []string {
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = digest(r)
	}
	return out
}

// goldenFile is the committed record of one workload's results at its
// bench windows, for the seeds a seed-1 run cycles through.
type goldenFile struct {
	Workload string        `json:"workload"`
	Warmup   int64         `json:"warmup_cycles"`
	Measure  int64         `json:"measure_cycles"`
	Sweeps   []goldenSweep `json:"sweeps"`
}

type goldenSweep struct {
	Seed   int64         `json:"seed"`
	Points []goldenPoint `json:"points"`
}

type goldenPoint struct {
	ID     string `json:"id"`
	SHA256 string `json:"sha256"`
}

func goldenPath(benchDir, workload string) string {
	return filepath.Join(benchDir, "golden", workload+".json")
}

// loadGolden reads the committed digests of a workload, one list per
// sub-seed, and checks they describe the plans the benchmark is about to
// run.
func loadGolden(benchDir string, w batchWorkload, plans [][]pointSpec) ([][]string, error) {
	raw, err := os.ReadFile(goldenPath(benchDir, w.Name))
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", w.Name, err)
	}
	stale := func(why string, args ...any) error {
		return fmt.Errorf("golden %s no longer describes the workload (%s); rewrite it with -write-golden", w.Name, fmt.Sprintf(why, args...))
	}
	if g.Warmup != w.Bench.Warmup || g.Measure != w.Bench.Measure {
		return nil, stale("windows %d/%d, now %d/%d", g.Warmup, g.Measure, w.Bench.Warmup, w.Bench.Measure)
	}
	if len(g.Sweeps) != len(plans) {
		return nil, stale("%d sweeps, now %d", len(g.Sweeps), len(plans))
	}
	out := make([][]string, len(plans))
	for k, sweep := range g.Sweeps {
		if sweep.Seed != subSeed(goldenSeed, k) || len(sweep.Points) != len(plans[k]) {
			return nil, stale("sweep %d is seed %d with %d points, now seed %d with %d", k, sweep.Seed, len(sweep.Points), subSeed(goldenSeed, k), len(plans[k]))
		}
		for i, p := range sweep.Points {
			if p.ID != plans[k][i].ID {
				return nil, stale("point %d is %q, now %q", i, p.ID, plans[k][i].ID)
			}
			out[k] = append(out[k], p.SHA256)
		}
	}
	return out, nil
}

func writeGolden(benchDir string, w batchWorkload, plans [][]pointSpec, results [][]sim.Result) error {
	g := goldenFile{Workload: w.Name, Warmup: w.Bench.Warmup, Measure: w.Bench.Measure}
	for k := range plans {
		sweep := goldenSweep{Seed: subSeed(goldenSeed, k)}
		for i, r := range results[k] {
			sweep.Points = append(sweep.Points, goldenPoint{ID: plans[k][i].ID, SHA256: digest(r)})
		}
		g.Sweeps = append(g.Sweeps, sweep)
	}
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(benchDir, w.Name), append(raw, '\n'), 0o644)
}

// countMismatches returns how many positions of got differ from want.
func countMismatches(got, want []string) int {
	n := 0
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			n++
		}
	}
	return n
}

// treeDirty reports why the goldens must not be rewritten from this tree:
// they pin the behaviour of the program under test, so every source file
// outside the benchmark has to be exactly what git has committed. Changes
// to the benchmark's own files and to prose (*.md) do not matter.
func treeDirty(root string) (string, error) {
	cmd := exec.Command("git", "status", "--porcelain", "--untracked-files=all")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git status in %s: %w (goldens are only written from a git checkout)", root, err)
	}
	for _, line := range strings.Split(strings.TrimRight(string(out), "\n"), "\n") {
		if len(line) < 4 {
			continue
		}
		path := strings.Trim(line[3:], `"`)
		if i := strings.Index(path, " -> "); i >= 0 {
			path = path[i+4:]
		}
		if strings.HasPrefix(path, "bench/") || path == "BENCHMARK.json" || path == ".gitignore" || strings.HasSuffix(path, ".md") {
			continue
		}
		return line, nil
	}
	return "", nil
}

// tableCells extracts the per-point cells of a figure table as
// FigureResult.Table renders it: one "thr lat sust" cell per algorithm in
// every row that starts with an injection rate. figureID selects the block
// when text holds several figures (the archived file does).
func tableCells(text, figureID string) []string {
	var cells []string
	in := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, figureID+":") {
			in = true
			continue
		}
		if !in {
			continue
		}
		if strings.HasPrefix(line, "max sustainable") {
			break
		}
		if line == "" || line[0] < '0' || line[0] > '9' {
			continue
		}
		parts := strings.Split(line, " | ")
		for _, c := range parts[1:] {
			cells = append(cells, strings.TrimSpace(parts[0])+"|"+strings.TrimSpace(c))
		}
	}
	return cells
}

// referenceMismatches compares a rendered figure table with the rows the
// repository archives for it under docs/ (read, never written).
func referenceMismatches(root, figureID, table string) (mismatched, total int, err error) {
	raw, err := os.ReadFile(filepath.Join(root, "docs", "results-paper-figures.txt"))
	if err != nil {
		return 0, 0, err
	}
	want := tableCells(string(raw), figureID)
	if len(want) == 0 {
		return 0, 0, fmt.Errorf("docs/results-paper-figures.txt has no rows for %s", figureID)
	}
	return countMismatches(tableCells(table, figureID), want), len(want), nil
}
