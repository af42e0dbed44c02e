package metrics

import (
	"math"
	"strings"
	"testing"

	"turnmodel/internal/topology"
)

func TestHistogramExactBelow16(t *testing.T) {
	var h Histogram
	for v := int64(0); v < histExact; v++ {
		h.Observe(v)
	}
	if h.Count() != histExact || h.Min() != 0 || h.Max() != histExact-1 {
		t.Fatalf("count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	if h.Sum() != histExact*(histExact-1)/2 {
		t.Errorf("sum = %d", h.Sum())
	}
	// With one sample per exact bucket, the q-th percentile is the
	// nearest-rank sample itself.
	for q, want := range map[float64]float64{50: 7, 100: 15} {
		if got := h.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestHistogramBucketing(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<20; v = v*5/4 + 1 {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf not monotonic at %d: %d < %d", v, b, prev)
		}
		prev = b
		mid := bucketMid(b)
		if err := math.Abs(mid - float64(v)); err > float64(v)/8+0.5 {
			t.Errorf("bucketMid(%d)=%v for value %d: error %v exceeds 12.5%%", b, mid, v, err)
		}
	}
}

func TestHistogramQuantileAndReset(t *testing.T) {
	var h Histogram
	h.Observe(-5) // clamps to 0
	if h.Min() != 0 || h.Count() != 1 {
		t.Fatalf("negative sample not clamped: min=%d count=%d", h.Min(), h.Count())
	}
	h.Reset()
	if h.Count() != 0 || h.Quantile(50) != 0 || h.Mean() != 0 {
		t.Fatal("reset histogram not empty")
	}
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	for _, tc := range []struct{ q, want float64 }{{50, 500}, {95, 950}, {99, 990}} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.want/8 {
			t.Errorf("Quantile(%v) = %v, want %v within 12.5%%", tc.q, got, tc.want)
		}
	}
	if p0 := h.Quantile(0); p0 != 1 {
		t.Errorf("p0 = %v, want exact min 1", p0)
	}
	if p100 := h.Quantile(100); p100 > 1000 || p100 < 1000-1000.0/8 {
		t.Errorf("p100 = %v, want within bucketing error below max 1000", p100)
	}
	if h.Mean() != 500.5 {
		t.Errorf("mean = %v", h.Mean())
	}
}

func TestCollectorWindowAndUtilization(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	c := NewCollector(mesh, Options{})
	// Channel 5->East carries one flit per cycle for 10 cycles; node 3
	// blocks twice; one packet flows end to end.
	c.Inject(0, 5, 6, 10)
	for cy := int64(0); cy < 10; cy++ {
		c.FlitMove(cy, 5, topology.East, 1)
		c.Tick(cy)
	}
	c.Blocked(3, 3, 5)
	c.Deliver(9, 5, 6, 10, 1, 2, 8)
	if u := c.ChannelUtil(5, topology.East); u != 1 {
		t.Errorf("saturated channel utilization = %v", u)
	}
	snap := c.Snapshot()
	if snap.WindowCycles != 10 || snap.PacketsInjected != 1 || snap.PacketsDelivered != 1 {
		t.Errorf("window=%d in=%d out=%d", snap.WindowCycles, snap.PacketsInjected, snap.PacketsDelivered)
	}
	if snap.BlockedCycles != 2 || snap.NodeBlocked[3] != 2 {
		t.Errorf("blocked: total=%d node3=%d", snap.BlockedCycles, snap.NodeBlocked[3])
	}
	// queue 2 + net 8 cycles = 10 cycles = 0.5 us at 20 flits/us.
	if snap.LatencyP50Us != 0.5 || snap.AvgQueueDelayUs != 0.1 || snap.AvgNetDelayUs != 0.4 {
		t.Errorf("latency p50=%v queue=%v net=%v", snap.LatencyP50Us, snap.AvgQueueDelayUs, snap.AvgNetDelayUs)
	}
	if snap.MaxChannelUtil != 1 {
		t.Errorf("max util = %v", snap.MaxChannelUtil)
	}
	// 4x4 mesh has 2*4*3 = 24 directed channels per axis, 48 total.
	if want := 1.0 / 48; math.Abs(snap.MeanChannelUtil-round4(want)) > 1e-9 {
		t.Errorf("mean util = %v, want %v", snap.MeanChannelUtil, round4(want))
	}
	if snap.MeshWidth != 4 || snap.MeshHeight != 4 {
		t.Errorf("mesh dims %dx%d", snap.MeshWidth, snap.MeshHeight)
	}

	// Reopening the window clears window counters but not the occupancy
	// trace or in-flight accounting.
	c.Inject(10, 0, 15, 4)
	c.BeginMeasurement(11)
	if u := c.ChannelUtil(5, topology.East); u != 0 {
		t.Errorf("utilization %v survived BeginMeasurement", u)
	}
	snap2 := c.Snapshot()
	if snap2.PacketsInjected != 0 || snap2.BlockedCycles != 0 || snap2.LatencyP50Us != 0 {
		t.Errorf("window counters survived BeginMeasurement: %+v", snap2)
	}
	if len(snap2.OccupancyFlits) == 0 {
		t.Error("occupancy trace lost at BeginMeasurement")
	}
	c.Tick(512) // next occupancy sample point at the default period
	if got := c.Snapshot().OccupancyFlits; got[len(got)-1] != 4 {
		t.Errorf("in-flight flits = %d after window reopen, want 4", got[len(got)-1])
	}
}

func TestCollectorSkipsMissingChannels(t *testing.T) {
	mesh := topology.NewMesh2D(3, 3)
	c := NewCollector(mesh, Options{})
	// Corner node 0 has no West or South channel.
	if c.exists[0*c.dirs+int(topology.West)] || c.exists[0*c.dirs+int(topology.South)] {
		t.Error("corner boundary channels marked existing")
	}
	// 3x3 mesh: 2 directed channels per edge, 12 edges.
	if c.channels != 24 {
		t.Errorf("channel count = %d, want 24", c.channels)
	}
}

func TestCollectorOccupancyDecimation(t *testing.T) {
	mesh := topology.NewMesh2D(2, 2)
	c := NewCollector(mesh, Options{OccupancyEvery: 1, OccupancyCap: 8})
	c.Inject(0, 0, 3, 1) // one flit in flight throughout
	for cy := int64(0); cy < 1000; cy++ {
		c.Tick(cy)
	}
	snap := c.Snapshot()
	if len(snap.OccupancyFlits) > 8 {
		t.Fatalf("trace length %d exceeds cap", len(snap.OccupancyFlits))
	}
	if snap.OccupancyEvery <= 1 {
		t.Errorf("period %d never doubled over 1000 samples at cap 8", snap.OccupancyEvery)
	}
	// The trace must still span the run: last sample within one period of
	// the end.
	if covered := int64(len(snap.OccupancyFlits)) * snap.OccupancyEvery; covered < 1000-snap.OccupancyEvery {
		t.Errorf("trace covers %d of 1000 cycles at period %d", covered, snap.OccupancyEvery)
	}
	for i, v := range snap.OccupancyFlits {
		if v != 1 {
			t.Fatalf("sample %d = %d, want 1", i, v)
		}
	}
}

// TestCollectorClipsBlockedSpans: a blocked span counts only its cycles
// inside the window, and an empty or pre-window span counts nothing.
func TestCollectorClipsBlockedSpans(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	c := NewCollector(mesh, Options{})
	c.Blocked(1, 0, 4)
	c.BeginMeasurement(10)
	c.Blocked(2, 3, 12)  // waited since before the window: 10 and 11 count
	c.Blocked(2, 12, 15) // inside: 3 cycles
	c.Blocked(5, 4, 9)   // ended before the window
	c.Blocked(5, 13, 13) // empty
	snap := c.Snapshot()
	if snap.BlockedCycles != 5 || snap.NodeBlocked[2] != 5 || snap.NodeBlocked[1] != 0 || snap.NodeBlocked[5] != 0 {
		t.Errorf("blocked: total=%d per node %v, want 5 all at node 2", snap.BlockedCycles, snap.NodeBlocked)
	}
}

func TestTee(t *testing.T) {
	mesh := topology.NewMesh2D(2, 2)
	a := NewCollector(mesh, Options{})
	b := NewCollector(mesh, Options{})
	if Tee(nil, a) != a || Tee(a, nil) != a || Tee(nil, nil) != nil {
		t.Fatal("nil-tolerance broken")
	}
	p := Tee(a, b)
	p.Inject(0, 0, 3, 5)
	p.Blocked(2, 1, 2)
	p.FlitMove(1, 0, topology.East, 1)
	p.Deliver(4, 0, 3, 5, 2, 1, 3)
	p.Tick(4)
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.PacketsInjected != 1 || sb.PacketsInjected != 1 ||
		sa.BlockedCycles != 1 || sb.BlockedCycles != 1 ||
		sa.PacketsDelivered != 1 || sb.PacketsDelivered != 1 {
		t.Errorf("tee did not fan out: a=%+v b=%+v", sa, sb)
	}
	if sa.ChannelUtil[0*sa.Dirs+int(topology.East)] != sb.ChannelUtil[0*sb.Dirs+int(topology.East)] {
		t.Error("tee halves diverge on channel flits")
	}
}

func TestRenderers(t *testing.T) {
	mesh := topology.NewMesh2D(4, 4)
	c := NewCollector(mesh, Options{})
	c.Inject(0, 5, 6, 10)
	for cy := int64(0); cy < 10; cy++ {
		c.FlitMove(cy, 5, topology.East, 1)
		c.Tick(cy)
	}
	c.Deliver(9, 5, 6, 10, 1, 2, 8)
	snap := c.Snapshot()

	sum := snap.Summary()
	for _, want := range []string{"window:", "latency:", "delay split:", "blocked", "channel utilization:"} {
		if !strings.Contains(sum, want) {
			t.Errorf("Summary missing %q:\n%s", want, sum)
		}
	}
	hm := snap.UtilizationHeatmap()
	if lines := strings.Count(hm, "\n"); lines != 4+3 {
		t.Errorf("heatmap has %d lines, want 7:\n%s", lines, hm)
	}
	if !strings.Contains(hm, "legend:") || !strings.Contains(hm, "@") {
		t.Errorf("heatmap lacks legend or saturated shade:\n%s", hm)
	}
	hot := snap.HottestChannels(3)
	if !strings.Contains(hot, "node    5 east(+x)   util 1.000") {
		t.Errorf("hottest channels wrong:\n%s", hot)
	}

	// Non-mesh geometry falls back to the hottest-channel list.
	snap.MeshWidth = 0
	if out := snap.UtilizationHeatmap(); !strings.Contains(out, "hottest channels") {
		t.Errorf("fallback missing:\n%s", out)
	}
}
