package metrics

import (
	"math"

	"turnmodel/internal/topology"
)

// Options tunes a Collector. The zero value selects all defaults.
type Options struct {
	// OccupancyEvery is the occupancy-trace sampling period in cycles.
	// 0 selects 512.
	OccupancyEvery int64
	// OccupancyCap bounds the trace length. When the trace fills, every
	// other sample is dropped and the period doubles, so the trace always
	// spans the whole run at bounded memory. 0 selects 2048.
	OccupancyCap int
	// FlitsPerUs converts cycles to microseconds in Snapshot fields.
	// 0 selects 20, the paper's channel bandwidth (network.FlitsPerMicrosecond).
	FlitsPerUs float64
}

func (o Options) withDefaults() Options {
	if o.OccupancyEvery <= 0 {
		o.OccupancyEvery = 512
	}
	if o.OccupancyCap <= 0 {
		o.OccupancyCap = 2048
	}
	if o.FlitsPerUs <= 0 {
		o.FlitsPerUs = 20
	}
	return o
}

// Collector is the standard Probe implementation: it accumulates
// per-channel flit counts, per-node blocked-cycle counts, a log-bucketed
// latency histogram with a queueing/in-network delay split, and an
// occupancy trace of in-network flits over the whole run.
//
// Counters other than the occupancy trace describe the current measurement
// window, which opens at construction and can be reopened with
// BeginMeasurement (the harness calls it at the warmup boundary). The
// occupancy trace is never reset — observing the warmup transient is its
// purpose.
//
// A Collector is not safe for concurrent use; attach one per simulator.
type Collector struct {
	topo  topology.Topology
	nodes int
	dirs  int
	opts  Options

	// exists marks node*dirs+dir slots that are real channels (mesh
	// boundary nodes lack some), so utilization averages skip the holes.
	exists   []bool
	channels int

	windowStart int64
	lastCycle   int64

	channelFlits []int64
	nodeBlocked  []int64
	blockedTotal int64

	packetsIn  int64
	packetsOut int64
	queueDelay int64
	netDelay   int64
	hist       Histogram

	faultEvents    int64
	packetsAborted int64
	packetsRetried int64
	packetsDropped int64

	// inFlightFlits tracks flits committed to the network (injected packet
	// lengths minus delivered packet lengths); the occupancy trace samples
	// it. Spans the whole run, not the window.
	inFlightFlits int64
	occupancy     []int64
	occEvery      int64
	nextSample    int64
}

// NewCollector builds a collector for a simulator over the given topology.
func NewCollector(topo topology.Topology, opts Options) *Collector {
	opts = opts.withDefaults()
	c := &Collector{
		topo:  topo,
		nodes: topo.Nodes(),
		dirs:  2 * topo.Dims(),
		opts:  opts,
	}
	c.exists = make([]bool, c.nodes*c.dirs)
	for node := 0; node < c.nodes; node++ {
		for d := 0; d < c.dirs; d++ {
			if _, ok := topo.Neighbor(topology.NodeID(node), topology.Direction(d)); ok {
				c.exists[node*c.dirs+d] = true
				c.channels++
			}
		}
	}
	c.channelFlits = make([]int64, c.nodes*c.dirs)
	c.nodeBlocked = make([]int64, c.nodes)
	c.occEvery = opts.OccupancyEvery
	c.occupancy = make([]int64, 0, opts.OccupancyCap)
	return c
}

// BeginMeasurement reopens the measurement window at the given cycle:
// latency, delay, blocked and channel counters restart, while the
// occupancy trace and in-flight accounting continue across the boundary.
func (c *Collector) BeginMeasurement(cycle int64) {
	c.windowStart = cycle
	c.lastCycle = cycle - 1
	for i := range c.channelFlits {
		c.channelFlits[i] = 0
	}
	for i := range c.nodeBlocked {
		c.nodeBlocked[i] = 0
	}
	c.blockedTotal = 0
	c.packetsIn, c.packetsOut = 0, 0
	c.queueDelay, c.netDelay = 0, 0
	c.faultEvents, c.packetsAborted, c.packetsRetried, c.packetsDropped = 0, 0, 0, 0
	c.hist.Reset()
}

// Inject implements Probe.
func (c *Collector) Inject(cycle int64, src, dst topology.NodeID, length int) {
	c.packetsIn++
	c.inFlightFlits += int64(length)
}

// Blocked implements Probe. Only the span's cycles inside the window
// count: a wait that began before BeginMeasurement is clipped to it.
func (c *Collector) Blocked(node topology.NodeID, from, to int64) {
	if n := to - max(from, c.windowStart); n > 0 {
		c.nodeBlocked[node] += n
		c.blockedTotal += n
	}
}

// FlitMove implements Probe.
func (c *Collector) FlitMove(cycle int64, from topology.NodeID, dir topology.Direction, flits int) {
	c.channelFlits[int(from)*c.dirs+int(dir)] += int64(flits)
}

// Deliver implements Probe.
func (c *Collector) Deliver(cycle int64, src, dst topology.NodeID, length, hops int, queueDelay, netDelay int64) {
	c.packetsOut++
	c.inFlightFlits -= int64(length)
	c.queueDelay += queueDelay
	c.netDelay += netDelay
	c.hist.Observe(queueDelay + netDelay)
}

// Fault implements Probe. Only channel-break events are counted; repairs
// tick the same channel back into service without a counter of their own.
func (c *Collector) Fault(cycle int64, from topology.NodeID, dir topology.Direction, failed bool) {
	if failed {
		c.faultEvents++
	}
}

// Abort implements Probe. The aborted worm's flits leave the network, so
// the occupancy accounting gives them back.
func (c *Collector) Abort(cycle int64, src, dst topology.NodeID, length, attempt int) {
	c.packetsAborted++
	c.inFlightFlits -= int64(length)
}

// Retry implements Probe.
func (c *Collector) Retry(cycle int64, src, dst topology.NodeID, attempt int, delay int64) {
	c.packetsRetried++
}

// Drop implements Probe.
func (c *Collector) Drop(cycle int64, src, dst topology.NodeID, length int, reason DropReason) {
	c.packetsDropped++
}

// Tick implements Probe.
func (c *Collector) Tick(cycle int64) {
	c.lastCycle = cycle
	if cycle < c.nextSample {
		return
	}
	if len(c.occupancy) == c.opts.OccupancyCap {
		// Decimate: keep every other sample and double the period, so the
		// trace keeps spanning the run at bounded memory.
		kept := c.occupancy[:0]
		for i := 0; i < len(c.occupancy); i += 2 {
			kept = append(kept, c.occupancy[i])
		}
		c.occupancy = kept
		c.occEvery *= 2
		c.nextSample = int64(len(c.occupancy)) * c.occEvery
		if cycle < c.nextSample {
			return
		}
	}
	c.occupancy = append(c.occupancy, c.inFlightFlits)
	c.nextSample += c.occEvery
}

// ChannelUtil reports the utilization of the channel leaving node in
// direction d over the current window: flits carried divided by elapsed
// cycles, clamped to 1. (The engines tally a packet's flits when its tail
// releases the channel, so a traversal straddling the window start can
// nudge the raw ratio past 1.)
func (c *Collector) ChannelUtil(node topology.NodeID, d topology.Direction) float64 {
	elapsed := c.lastCycle - c.windowStart + 1
	if elapsed <= 0 {
		return 0
	}
	u := float64(c.channelFlits[int(node)*c.dirs+int(d)]) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// round4 keeps JSON output readable: utilizations and microsecond values
// carry no information past four decimals.
func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// Snapshot summarizes the collector's current state. The receiver keeps
// collecting; the snapshot is an independent copy.
func (c *Collector) Snapshot() *Snapshot {
	elapsed := c.lastCycle - c.windowStart + 1
	if elapsed < 0 {
		elapsed = 0
	}
	us := func(cycles float64) float64 { return round4(cycles / c.opts.FlitsPerUs) }

	s := &Snapshot{
		Nodes:            c.nodes,
		Dirs:             c.dirs,
		WindowCycles:     elapsed,
		PacketsInjected:  c.packetsIn,
		PacketsDelivered: c.packetsOut,
		FaultEvents:      c.faultEvents,
		PacketsAborted:   c.packetsAborted,
		PacketsRetried:   c.packetsRetried,
		PacketsDropped:   c.packetsDropped,
		BlockedCycles:    c.blockedTotal,
		NodeBlocked:      append([]int64(nil), c.nodeBlocked...),
		ChannelUtil:      make([]float64, len(c.channelFlits)),
		OccupancyEvery:   c.occEvery,
		OccupancyFlits:   append([]int64(nil), c.occupancy...),
	}
	if c.topo.Dims() == 2 {
		s.MeshWidth, s.MeshHeight = c.topo.Size(0), c.topo.Size(1)
	}
	if n := c.hist.Count(); n > 0 {
		s.LatencyP50Us = us(c.hist.Quantile(50))
		s.LatencyP95Us = us(c.hist.Quantile(95))
		s.LatencyP99Us = us(c.hist.Quantile(99))
		s.AvgQueueDelayUs = us(float64(c.queueDelay) / float64(n))
		s.AvgNetDelayUs = us(float64(c.netDelay) / float64(n))
	}
	var sum, max float64
	for i := range c.channelFlits {
		if !c.exists[i] {
			continue
		}
		u := c.ChannelUtil(topology.NodeID(i/c.dirs), topology.Direction(i%c.dirs))
		s.ChannelUtil[i] = round4(u)
		sum += u
		if u > max {
			max = u
		}
	}
	if c.channels > 0 {
		s.MeanChannelUtil = round4(sum / float64(c.channels))
	}
	s.MaxChannelUtil = round4(max)
	return s
}

// Snapshot is the JSON-ready summary of one measurement window. It is what
// sim.Result carries when metrics collection is on; the field names are
// part of the schema-v2 sweep report (docs/metrics.md).
type Snapshot struct {
	// Nodes and Dirs give the channel-index geometry: ChannelUtil and
	// NodeBlocked are indexed node*Dirs+dir and node respectively.
	Nodes int `json:"nodes"`
	Dirs  int `json:"dirs"`
	// MeshWidth and MeshHeight are set for two-dimensional topologies
	// (node id = y*MeshWidth + x) and 0 otherwise.
	MeshWidth  int `json:"mesh_width,omitempty"`
	MeshHeight int `json:"mesh_height,omitempty"`
	// WindowCycles is the length of the measurement window.
	WindowCycles int64 `json:"window_cycles"`
	// PacketsInjected and PacketsDelivered count packets entering the
	// network and reaching their destination inside the window.
	PacketsInjected  int64 `json:"packets_injected"`
	PacketsDelivered int64 `json:"packets_delivered"`
	// Fault and recovery accounting inside the window (schema v3): channel
	// breaks, worms aborted by deadlock recovery, source retries of aborted
	// packets, and packets dropped (unreachable or retry budget exhausted).
	// All zero — and omitted from JSON — when no faults are configured.
	FaultEvents    int64 `json:"fault_events,omitempty"`
	PacketsAborted int64 `json:"packets_aborted,omitempty"`
	PacketsRetried int64 `json:"packets_retried,omitempty"`
	PacketsDropped int64 `json:"packets_dropped,omitempty"`
	// Latency percentiles over packets delivered in the window, from the
	// log-bucketed histogram (≤12.5% relative bucketing error), in
	// microseconds at the configured channel bandwidth.
	LatencyP50Us float64 `json:"latency_p50_us"`
	LatencyP95Us float64 `json:"latency_p95_us"`
	LatencyP99Us float64 `json:"latency_p99_us"`
	// The latency split: time spent queueing at the source versus time in
	// the network, averaged over delivered packets, in microseconds.
	AvgQueueDelayUs float64 `json:"avg_queue_delay_us"`
	AvgNetDelayUs   float64 `json:"avg_net_delay_us"`
	// BlockedCycles counts header-blocked router cycles in the window,
	// summed over nodes; NodeBlocked is the per-node breakdown. A wait is
	// reported when it ends, so the window's last cycles count only after
	// the engine's FlushBlocked (the harness calls it as the window closes).
	BlockedCycles int64   `json:"blocked_cycles"`
	NodeBlocked   []int64 `json:"node_blocked"`
	// Channel utilization over the window: fraction of cycles each channel
	// carried a flit, indexed node*Dirs+dir (0 for channels the topology
	// does not have). Mean is over existing channels only.
	MeanChannelUtil float64   `json:"mean_channel_util"`
	MaxChannelUtil  float64   `json:"max_channel_util"`
	ChannelUtil     []float64 `json:"channel_util"`
	// OccupancyFlits samples the in-network flit count every
	// OccupancyEvery cycles from cycle 0 — the warmup transient is visible
	// at the front of the trace.
	OccupancyEvery int64   `json:"occupancy_every"`
	OccupancyFlits []int64 `json:"occupancy_flits"`
}
