package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenFile pins turncheck's whole output over the battery below. Rewrite
// it with UPDATE_GOLDEN=1 go test ./cmd/turncheck when a change to the
// output is intended.
const goldenFile = "testdata/turncheck.golden"

// goldenBattery covers every mode: the census, -all on each topology
// family, -vc on the native schemes (acyclic and cyclic) and on lifted
// algorithms, -faults under every fault-routing policy with and without
// misroute budget, on both kinds of algorithm, and the error exits,
// including the combinations the command refuses to verify.
var goldenBattery = [][]string{
	{"-census"},
	{"-topology", "mesh8x8", "-all"},
	{"-topology", "mesh4x4", "-all"},
	{"-topology", "mesh3x3x3", "-all"},
	{"-topology", "torus4x4", "-all"},
	{"-topology", "hypercube4", "-all"},
	{"-topology", "ccc3", "-all"},
	{"-topology", "hex4x4", "-all"},
	{"-topology", "mesh4x4", "-routing", "west-first"},
	{"-vc", "-topology", "mesh4x4", "-routing", "double-y"},
	{"-vc", "-topology", "mesh5x5", "-routing", "double-y"},
	{"-vc", "-topology", "torus4x4", "-routing", "dateline-dor"},
	{"-vc", "-topology", "torus5x5", "-routing", "dateline-dor"},
	{"-vc", "-topology", "torus4x4", "-routing", "naive-torus-dor"},
	{"-vc", "-topology", "ccc3", "-routing", "ccc-ascending"},
	{"-vc", "-topology", "ccc3", "-routing", "ccc-naive"},
	{"-vc", "-topology", "mesh4x4", "-routing", "west-first"},
	{"-vc", "-topology", "mesh5x5", "-routing", "negative-first"},
	{"-vc", "-topology", "mesh4x4", "-routing", "fully-adaptive"},
	{"-vc", "-topology", "hypercube4", "-routing", "p-cube"},
	{"-topology", "mesh8x8", "-all", "-faults", "5:e,node12,40:n"},
	{"-topology", "mesh8x8", "-all", "-faults", "5:e,node12,40:n", "-ftroute", "local"},
	{"-topology", "mesh8x8", "-all", "-faults", "5:e,node12,40:n", "-ftroute", "local", "-misroute", "2"},
	{"-topology", "mesh8x8", "-all", "-faults", "5:e,node12,40:n", "-ftroute", "khop"},
	{"-topology", "mesh8x8", "-all", "-faults", "5:e,node12,40:n", "-ftroute", "khop", "-misroute", "2"},
	{"-topology", "mesh8x8", "-all", "-faults", "5:e,node12,40:n", "-ftroute", "khop2"},
	{"-topology", "mesh8x8", "-all", "-faults", "5:e,node12,40:n", "-ftroute", "khop2", "-misroute", "2"},
	{"-topology", "hypercube4", "-all", "-faults", "2:+0,node9", "-ftroute", "khop", "-misroute", "2"},
	{"-topology", "mesh4x4", "-routing", "fully-adaptive", "-faults", "5:e", "-ftroute", "khop", "-misroute", "4"},
	{},
	{"-vc", "-topology", "mesh4x4"},
	{"-vc", "-topology", "mesh4x4", "-routing", "no-such-algorithm"},
	{"-topology", "bogus", "-all"},
	{"-topology", "mesh4x4", "-routing", "no-such-algorithm"},
	{"-topology", "mesh4x4", "-all", "-faults", "0:w"},
	{"-topology", "mesh4x4", "-all", "-faults", "5:e", "-ftroute", "khop0"},
	{"-vc", "-topology", "mesh4x4", "-routing", "double-y", "-faults", "5:e,node3"},
	{"-vc", "-topology", "mesh4x4", "-routing", "double-y", "-faults", "5:e,node3", "-ftroute", "khop"},
	{"-vc", "-topology", "mesh5x5", "-routing", "double-y", "-faults", "6:n,12:e,node18", "-ftroute", "khop", "-misroute", "4"},
	{"-vc", "-topology", "torus4x4", "-routing", "dateline-dor", "-faults", "2:e,9:n", "-ftroute", "local"},
	{"-vc", "-topology", "ccc3", "-routing", "ccc-ascending", "-faults", "node5", "-ftroute", "khop2", "-misroute", "1"},
	{"-vc", "-topology", "mesh5x5", "-routing", "negative-first", "-faults", "7:n,node12", "-ftroute", "khop", "-misroute", "4"},
	{"-vc", "-topology", "torus4x4", "-routing", "naive-torus-dor", "-faults", "2:e", "-ftroute", "khop"},
	{"-vc", "-topology", "mesh4x4", "-routing", "double-y", "-faults", "0:w"},
	{"-vc", "-topology", "mesh4x4", "-routing", "double-y", "-all"},
	{"-vc", "-topology", "mesh4x4", "-routing", "double-y", "-ftroute", "khop"},
	{"-topology", "mesh4x4", "-all", "-misroute", "2"},
	{"-topology", "mesh4x4", "-all", "-faults", "5:e", "-misroute", "2"},
	{"-topology", "mesh4x4", "-all", "-routing", "xy"},
	{"-census", "-faults", "5:e"},
}

// TestGoldenOutput runs the battery in-process and compares stdout, stderr
// and the exit code of every invocation with the golden file byte for byte.
func TestGoldenOutput(t *testing.T) {
	var b strings.Builder
	for _, args := range goldenBattery {
		var stdout, stderr strings.Builder
		code := run(args, &stdout, &stderr)
		fmt.Fprintf(&b, "=== turncheck %s\n%s", strings.Join(args, " "), stdout.String())
		if stderr.Len() > 0 {
			fmt.Fprintf(&b, "--- stderr\n%s", stderr.String())
		}
		fmt.Fprintf(&b, "--- exit %d\n", code)
	}
	got := b.String()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q", goldenFile, i+1, g, w)
			}
		}
	}
}
