package vcnet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestWorkCountsPinned pins the engine's work counters (see work) on the
// probe-off VC golden runs, whose results vc_digests.json pins: the same
// results reached with more visits, stamps or run splits show here and
// nowhere else. The counts are exact; regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/vcnet -run TestWorkCountsPinned
//
// when a change of the engine's work is intended, and say in the change
// which counts moved and why.
func TestWorkCountsPinned(t *testing.T) {
	golden := filepath.Join("testdata", "work_counts.json")
	got := map[string]WorkCounts{}
	for _, c := range vcGoldenCases() {
		for _, seed := range []int64{1, 2} {
			net, _ := runVCGolden(t, c, c.cfg(), seed, nil)
			w := net.Work()
			if w.Visits != w.Moved+w.Refused+w.Idle {
				t.Errorf("%s seed %d: %d visits, %d moved + %d refused + %d idle", c.name, seed, w.Visits, w.Moved, w.Refused, w.Idle)
			}
			got[fmt.Sprintf("%s/seed%d", c.name, seed)] = w
		}
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]WorkCounts
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d entries, the test computes %d", golden, len(want), len(got))
	}
	for key, g := range got {
		if w, ok := want[key]; !ok || w != g {
			t.Errorf("%s: counts %+v, golden %+v (rerun with UPDATE_GOLDEN=1 if the change is intended)", key, g, w)
		}
	}
}
