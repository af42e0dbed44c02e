package main

import (
	"math"
	"math/rand"
	"strings"
	"time"

	"turnmodel/internal/network"
	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
	"turnmodel/internal/stats"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
	"turnmodel/internal/vc"
	"turnmodel/internal/vcnet"
)

// pointSpec is one simulation point as the benchmark generates it: the
// inputs of a run, independent of how sim.Runner would lower them.
type pointSpec struct {
	ID         string
	NewTopo    func() topology.Topology
	Algorithm  string
	VC         bool // run on internal/vcnet instead of internal/network
	NewPattern func(topology.Topology) traffic.Pattern
	// Params carries rate, windows, seed and the fault configuration;
	// Pattern is filled in per run.
	Params sim.RunParams
}

// cycles is the simulated length of the point.
func (p pointSpec) cycles() int64 { return p.Params.WarmupCycles + p.Params.MeasureCycles }

// layer indexes the spans the driver records around each call into a
// package under test.
type layer int

const (
	lPoint layer = iota
	lTopologyBuild
	lRoutingBuild
	lTrafficBuild
	lEngineBuild
	lGenerate
	lDest
	lEnqueue
	lStep
	lTakeDelivered
	lStats
	numLayers
)

// layerParent gives each span the span that caused it.
var layerParent = [numLayers]layer{
	lPoint:         -1,
	lTopologyBuild: lPoint,
	lRoutingBuild:  lPoint,
	lTrafficBuild:  lPoint,
	lEngineBuild:   lPoint,
	lGenerate:      lPoint,
	lDest:          lGenerate,
	lEnqueue:       lGenerate,
	lStep:          lPoint,
	lTakeDelivered: lPoint,
	lStats:         lPoint,
}

// layerName names a span; "engine" stands for the simulator package the
// point ran on ("network" or "vcnet", see spanName).
var layerName = [numLayers]string{
	lPoint:         "sim.point",
	lTopologyBuild: "topology.build",
	lRoutingBuild:  "routing.build",
	lTrafficBuild:  "traffic.build",
	lEngineBuild:   "engine.build",
	lGenerate:      "sim.generate",
	lDest:          "traffic.dest",
	lEnqueue:       "engine.enqueue",
	lStep:          "engine.step",
	lTakeDelivered: "engine.take_delivered",
	lStats:         "stats",
}

// spanName renders a layer's span name for the given engine package.
func spanName(l layer, enginePkg string) string {
	return strings.Replace(layerName[l], "engine.", enginePkg+".", 1)
}

// agg is one aggregated span: how often the call ran, how many of those
// calls were timed, and the total time of the timed ones. The calls made
// inside the per-cycle loops are timed on a sample of the cycles (see
// spanClock); every other call is timed every time.
type agg struct {
	Count int64
	Timed int64
	Ns    int64
}

// total estimates the time of all Count calls from the timed ones.
func (a agg) total() float64 {
	if a.Timed == 0 {
		return 0
	}
	return float64(a.Ns) * float64(a.Count) / float64(a.Timed)
}

func (a *agg) merge(b agg) {
	a.Count += b.Count
	a.Timed += b.Timed
	a.Ns += b.Ns
}

// pointTrace is what the driver records for one point: the aggregated
// span of every layer call plus the counts taken at the same boundaries.
type pointTrace struct {
	Spans         [numLayers]agg
	Cycles        int64 // simulated cycles the engine's clock covered
	CyclesSkipped int64
	Flits         int64 // flits consumed over the whole run
}

// simEngine is what the driver needs from either simulator.
type simEngine interface {
	Step() error
	Close()
	Enqueue(src, dst topology.NodeID, length int) *network.Packet
	Cycle() int64
	SetInjectionHorizon(cycle int64)
	CyclesSkipped() int64
	FlitsConsumed() int64
	InFlight() int
	MaxQueueLen() int
	TakeDelivered() []*network.Packet
	PacketsDelivered() int64
	PacketsAborted() int64
	PacketsRetried() int64
	PacketsDropped() int64
	FaultEvents() int64
	MaskedFaults() int64
	MisrouteHops() int64
}

// drivePoint runs one point layer by layer through exported calls only —
// the benchmark's own statement of what sim.Run and sim.RunVC do — and
// returns the same Result they return. With tr non-nil every layer call is
// wrapped in a span; the simulated outcome does not depend on it.
func drivePoint(ps pointSpec, tr *pointTrace) (sim.Result, error) {
	var clock spanClock
	if tr != nil {
		// Every point samples its own cycles, so that what one point's
		// sample over- or understates another's does not.
		clock = spanClock{tr: tr, cost: clockReadCost(), timed: true,
			rnd: 0x9E3779B97F4A7C15 ^ uint64(ps.Params.Seed) ^ math.Float64bits(ps.Params.InjectionRate)}
		clock.last = time.Now()
	}
	pointStart := clock.last

	topo := ps.NewTopo()
	clock.lap(lTopologyBuild)

	cfg := ps.Params
	if len(cfg.Lengths) == 0 {
		cfg.Lengths = sim.DefaultLengths
	}
	var (
		net     simEngine
		algName string
	)
	if ps.VC {
		alg, err := vc.New(ps.Algorithm, topo)
		if err != nil {
			return sim.Result{}, err
		}
		clock.lap(lRoutingBuild)
		cfg.Pattern = ps.NewPattern(topo)
		clock.lap(lTrafficBuild)
		net = vcnet.New(vcnet.Config{
			Routing:        alg,
			WatchdogCycles: cfg.WatchdogCycles,
			FaultPlan:      cfg.FaultPlan,
			Recovery:       cfg.Recovery,
			FaultRouting:   cfg.FaultRouting,
		})
		algName = alg.Name()
	} else {
		alg, err := routing.New(ps.Algorithm, topo)
		if err != nil {
			return sim.Result{}, err
		}
		clock.lap(lRoutingBuild)
		cfg.Pattern = ps.NewPattern(topo)
		clock.lap(lTrafficBuild)
		net = network.New(network.Config{
			Routing:        alg,
			Seed:           cfg.Seed,
			WatchdogCycles: cfg.WatchdogCycles,
			FaultPlan:      cfg.FaultPlan,
			Recovery:       cfg.Recovery,
			FaultRouting:   cfg.FaultRouting,
		})
		algName = alg.Name()
	}
	clock.lap(lEngineBuild)
	defer net.Close()

	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	injecting := traffic.InjectingFraction(cfg.Pattern, topo)
	res := sim.Result{
		Algorithm:         algName,
		Pattern:           cfg.Pattern.Name(),
		InjectionRate:     cfg.InjectionRate,
		OfferedFlitsPerUs: cfg.InjectionRate * float64(topo.Nodes()) * injecting * network.FlitsPerMicrosecond,
	}

	meanLen := 0.0
	for _, l := range cfg.Lengths {
		meanLen += float64(l)
	}
	meanLen /= float64(len(cfg.Lengths))
	meanGap := meanLen / cfg.InjectionRate
	next := make([]float64, topo.Nodes())
	for i := range next {
		next[i] = rng.ExpFloat64() * meanGap
	}
	// generate fires every arrival due at the cycle and returns the first
	// future cycle at which any node generates again.
	generate := func(cycle int64) int64 {
		earliest := math.Inf(1)
		for node := range next {
			for next[node] <= float64(cycle) {
				next[node] += rng.ExpFloat64() * meanGap
				t := clock.now()
				dst := cfg.Pattern.Dest(topology.NodeID(node), rng)
				clock.add(lDest, t)
				if dst == topology.NodeID(node) {
					continue
				}
				length := cfg.Lengths[rng.Intn(len(cfg.Lengths))]
				t = clock.now()
				net.Enqueue(topology.NodeID(node), dst, length)
				clock.add(lEnqueue, t)
			}
			if next[node] < earliest {
				earliest = next[node]
			}
		}
		if math.IsInf(earliest, 1) {
			return math.MaxInt64
		}
		return int64(math.Ceil(earliest))
	}

	var lat stats.Sample
	var hops stats.Accumulator
	deadlocked := false

	for !deadlocked && net.Cycle() < cfg.WarmupCycles {
		clock.beginCycle()
		nextGen := generate(net.Cycle())
		net.SetInjectionHorizon(min(nextGen, cfg.WarmupCycles))
		clock.lapCycle(lGenerate)
		if err := net.Step(); err != nil {
			deadlocked = true
		}
		clock.lapCycle(lStep)
	}
	net.TakeDelivered()
	flitsBefore := net.FlitsConsumed()
	inFlightBefore := net.InFlight()
	deliveredBefore := net.PacketsDelivered()
	droppedBefore := net.PacketsDropped()
	abortedBefore := net.PacketsAborted()
	retriedBefore := net.PacketsRetried()
	faultsBefore := net.FaultEvents()
	maskedBefore := net.MaskedFaults()
	misrouteBefore := net.MisrouteHops()
	measureStart := net.Cycle()
	measureEnd := measureStart + cfg.MeasureCycles
	for !deadlocked && net.Cycle() < measureEnd {
		clock.beginCycle()
		nextGen := generate(net.Cycle())
		net.SetInjectionHorizon(min(nextGen, measureEnd))
		clock.lapCycle(lGenerate)
		if err := net.Step(); err != nil {
			deadlocked = true
		}
		clock.lapCycle(lStep)
		delivered := net.TakeDelivered()
		clock.lapCycle(lTakeDelivered)
		if len(delivered) == 0 {
			continue
		}
		t := clock.now()
		for _, p := range delivered {
			if p.Created >= measureStart-cfg.WarmupCycles/2 {
				lat.Add(network.Microseconds(p.Latency()))
				hops.Add(float64(p.Hops))
			}
		}
		clock.add(lStats, t)
	}

	clock.endCycles()
	t := clock.now()
	if elapsed := net.Cycle() - measureStart; elapsed > 0 {
		res.ThroughputFlitsPerUs = float64(net.FlitsConsumed()-flitsBefore) / network.Microseconds(elapsed)
	}
	res.AvgLatencyUs = lat.Mean()
	res.P95LatencyUs = lat.Percentile(95)
	res.AvgHops = hops.Mean()
	res.Packets = lat.Count()
	clock.add(lStats, t)
	res.MaxQueue = net.MaxQueueLen()
	res.QueueGrowth = net.InFlight() - inFlightBefore
	res.Deadlocked = deadlocked
	res.Delivered = net.PacketsDelivered() - deliveredBefore
	res.Dropped = net.PacketsDropped() - droppedBefore
	res.Aborted = net.PacketsAborted() - abortedBefore
	res.Retried = net.PacketsRetried() - retriedBefore
	res.FaultEvents = net.FaultEvents() - faultsBefore
	res.MaskedFaults = net.MaskedFaults() - maskedBefore
	res.MisrouteHops = net.MisrouteHops() - misrouteBefore
	res.DeliveredFraction = 1
	if denom := res.Delivered + res.Dropped; denom > 0 {
		res.DeliveredFraction = float64(res.Delivered) / float64(denom)
	}
	expected := cfg.InjectionRate * float64(cfg.MeasureCycles) * float64(topo.Nodes()) / meanLen * injecting
	res.Sustainable = !deadlocked && float64(res.QueueGrowth) <= 50+0.02*expected

	if tr != nil {
		tr.Cycles = net.Cycle()
		tr.CyclesSkipped = net.CyclesSkipped()
		tr.Flits = net.FlitsConsumed()
		tr.Spans[lPoint] = agg{Count: 1, Timed: 1, Ns: int64(time.Since(pointStart))}
	}
	return res, nil
}

// spanClock hands out the timestamps that delimit spans. With tr nil every
// method is a no-op.
//
// The driver makes three calls per simulated cycle (generate, Step,
// TakeDelivered), each of a microsecond or less, so reading the clock
// around every one would cost a good part of what it measures. Instead a
// quarter of the cycles, picked in short runs by a fixed pseudo-random
// sequence, are timed in full: a reading before the cycle and one after
// each call, each reading ending one span and starting the next. The calls of the other cycles are
// counted, and a span's total is the timed calls' time scaled up to the
// count — the calls nested inside a cycle (Pattern.Dest and Enqueue per
// packet, the statistics per delivery) included. What runs outside the
// cycle loops (the constructors, the final statistics) is timed every time.
//
// Every span runs from one clock reading to the next and so contains about
// one reading's own cost and the bookkeeping around it; what an empty span
// reads is measured when the point starts and taken off each timed call,
// so that a span reports the call and not the clock. The readings stay inside the point span, as the point's self time.
type spanClock struct {
	tr    *pointTrace
	last  time.Time
	cost  time.Duration
	rnd   uint64
	left  int // cycles left in the current run of timed or untimed cycles
	timed bool
}

// clockReadCost is what an empty span reads: the median of 64 per-cycle
// laps with nothing between them, which covers the clock reading and the
// lap's own bookkeeping on either side of it.
func clockReadCost() time.Duration {
	var scratch pointTrace
	c := spanClock{tr: &scratch, timed: true, last: time.Now()}
	var gaps [64]float64
	for i := range gaps {
		before := scratch.Spans[lStep].Ns
		c.lapCycle(lStep)
		gaps[i] = float64(scratch.Spans[lStep].Ns - before)
	}
	return time.Duration(median(gaps[:]))
}

// span is the time from start to end less the clock's own cost.
func (c *spanClock) span(start, end time.Time) int64 {
	if d := end.Sub(start) - c.cost; d > 0 {
		return int64(d)
	}
	return 0
}

// Cycles are sampled in runs of sampleRun consecutive cycles, one run in
// four. Runs make the clock cheaper to read (its code and data stay in the
// cache from one timed cycle to the next), which is most of the tracing
// overhead on workloads whose cycles are cheap; they also make the sample
// coarser, since neighbouring cycles cost alike, so they are kept short.
const (
	sampleMask = 3
	sampleRun  = 8
)

// beginCycle decides whether the cycle about to run is timed.
func (c *spanClock) beginCycle() {
	if c.tr == nil {
		return
	}
	if c.left == 0 {
		c.rnd ^= c.rnd << 13
		c.rnd ^= c.rnd >> 7
		c.rnd ^= c.rnd << 17
		c.timed = c.rnd&sampleMask == 0
		c.left = sampleRun
	}
	c.left--
	if c.timed {
		c.last = time.Now()
	}
}

// lapCycle counts one per-cycle call and, in a timed cycle, charges it the
// time since the previous reading.
func (c *spanClock) lapCycle(l layer) {
	if c.tr == nil {
		return
	}
	a := &c.tr.Spans[l]
	a.Count++
	if c.timed {
		now := time.Now()
		a.Timed++
		a.Ns += c.span(c.last, now)
		c.last = now
	}
}

// lap charges the time since the previous reading to a call that is timed
// every time.
func (c *spanClock) lap(l layer) {
	if c.tr == nil {
		return
	}
	now := time.Now()
	c.tr.Spans[l].merge(agg{1, 1, c.span(c.last, now)})
	c.last = now
}

// endCycles leaves the per-cycle loops: what follows is timed every time.
func (c *spanClock) endCycles() { c.timed = true }

// now and add count a call nested inside another span and, outside an
// untimed cycle, time it.
func (c *spanClock) now() time.Time {
	if c.tr == nil || !c.timed {
		return time.Time{}
	}
	return time.Now()
}

func (c *spanClock) add(l layer, start time.Time) {
	if c.tr == nil {
		return
	}
	a := &c.tr.Spans[l]
	a.Count++
	if c.timed {
		a.Timed++
		a.Ns += c.span(start, time.Now())
	}
}
