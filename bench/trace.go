package main

import (
	"fmt"
	"io"
	"strings"
)

// spanRow is one line of the per-layer cost ledger: a span aggregated over
// the run, the span that caused it, and — once fillLedger has run — its
// self time (duration minus the part its children cover) and its share of
// its parent.
type spanRow struct {
	Name          string  `json:"name"`
	Parent        string  `json:"parent,omitempty"`
	Count         int64   `json:"count"`
	TotalS        float64 `json:"total_s"`
	SelfS         float64 `json:"self_s"`
	ShareOfParent float64 `json:"share_of_parent,omitempty"`
}

// fillLedger computes self times and parent shares in place. Rows must
// list a parent before its children.
func fillLedger(rows []spanRow) {
	byName := make(map[string]*spanRow, len(rows))
	for i := range rows {
		rows[i].SelfS = rows[i].TotalS
		byName[rows[i].Name] = &rows[i]
	}
	for i := range rows {
		p, ok := byName[rows[i].Parent]
		if !ok {
			continue
		}
		p.SelfS -= rows[i].TotalS
		if p.TotalS > 0 {
			rows[i].ShareOfParent = rows[i].TotalS / p.TotalS
		}
	}
}

func depth(rows []spanRow, name string) int {
	d := 0
	for name != "" {
		found := false
		for _, r := range rows {
			if r.Name == name {
				name, found = r.Parent, true
				break
			}
		}
		if !found {
			break
		}
		d++
	}
	return d
}

// printLedger renders the ledger as one table: where the time of the
// traced run went, layer by layer.
func printLedger(w io.Writer, rows []spanRow) {
	fmt.Fprintf(w, "  %-34s %12s %11s %11s %9s\n", "span", "count", "total s", "self s", "of parent")
	for _, r := range rows {
		indent := strings.Repeat("  ", depth(rows, r.Name)-1)
		share := ""
		if r.Parent != "" {
			share = fmt.Sprintf("%8.2f%%", 100*r.ShareOfParent)
		}
		fmt.Fprintf(w, "  %-34s %12d %11.4f %11.4f %9s\n", indent+r.Name, r.Count, r.TotalS, r.SelfS, share)
	}
}

// sumSpans adds up the traces of every point of every traced round.
func sumSpans(traces []pointTrace) (total [numLayers]agg) {
	for i := range traces {
		for l := range total {
			total[l].merge(traces[i].Spans[l])
		}
	}
	return total
}

// parentName names the span that causes a layer's span; the points hang
// under the root span of the traced rounds.
func parentName(l layer, enginePkg string) string {
	if p := layerParent[l]; p >= 0 {
		return spanName(p, enginePkg)
	}
	return "sim.run"
}

// batchLedger turns the summed spans of the traced rounds into ledger rows
// under a root span for the rounds' wall time.
func batchLedger(enginePkg string, total [numLayers]agg, runWallS float64, rounds int) []spanRow {
	rows := []spanRow{{Name: "sim.run", Count: int64(rounds), TotalS: runWallS}}
	for l := layer(0); l < numLayers; l++ {
		rows = append(rows, spanRow{
			Name:   spanName(l, enginePkg),
			Parent: parentName(l, enginePkg),
			Count:  total[l].Count,
			TotalS: total[l].total() / 1e9,
		})
	}
	fillLedger(rows)
	return rows
}
