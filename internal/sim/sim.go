// Package sim is the experiment harness that reproduces the paper's
// Section 6 simulations: it drives the wormhole network simulator with
// Poisson message generation per processor, bimodal packet lengths (10 or
// 200 flits with equal probability), a warmup period and a measurement
// window, and reports the two figures of merit of the paper — average
// communication latency in microseconds and average sustained network
// throughput in flits delivered per microsecond.
package sim

import (
	"fmt"
	"math/rand"

	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/network"
	"turnmodel/internal/routing"
	"turnmodel/internal/stats"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
)

// DefaultLengths are the paper's two packet sizes in flits; each message
// is one packet of either length with equal probability.
var DefaultLengths = []int{10, 200}

// RunParams are the run parameters shared by both simulator harnesses
// (Config for the physical-channel network, VCConfig for the
// virtual-channel one): workload, offered load, run windows, seeding and
// instrumentation. Both configs embed it, so the defaults live in one
// place.
type RunParams struct {
	// Pattern selects the workload.
	Pattern traffic.Pattern
	// InjectionRate is the offered load per processor in flits per
	// cycle. At the paper's 20 flits/us channel bandwidth, a rate of
	// 0.05 means each processor offers one flit per microsecond.
	InjectionRate float64
	// Lengths are the candidate packet lengths, chosen uniformly.
	// Defaults to DefaultLengths.
	Lengths []int
	// WarmupCycles and MeasureCycles bound the run. Defaults: 20000
	// warmup, 40000 measurement.
	WarmupCycles, MeasureCycles int64
	// Seed makes runs reproducible.
	Seed int64
	// WatchdogCycles is forwarded to the simulator (see network.Config).
	WatchdogCycles int64
	// FaultPlan injects channel faults into the run (static channels,
	// failed nodes, or a seeded random per-cycle failure process; see
	// fault.Plan). The zero plan is fault-free.
	FaultPlan fault.Plan
	// Recovery enables deadlock recovery in place of the fail-stop
	// watchdog (see fault.Recovery): stuck worms are aborted and
	// source-retried with backoff, and undeliverable packets are dropped
	// and accounted rather than wedging the run.
	Recovery fault.Recovery
	// FaultRouting enables in-network fault masking (see
	// fault.RoutingPolicy): routers filter candidate outputs they know
	// to be broken and may take bounded safe misroutes. Ignored when
	// FaultPlan is empty.
	FaultRouting fault.RoutingPolicy
	// Metrics attaches a metrics.Collector to the run: Result.Metrics
	// then carries the measurement-window Snapshot (channel utilization,
	// latency percentiles, blocked cycles, occupancy trace). Collection
	// does not perturb the simulation; the Result scalars are identical
	// either way.
	Metrics bool
	// MetricsOptions tunes the collector; the zero value selects the
	// defaults (see metrics.Options).
	MetricsOptions metrics.Options
	// Probe, when non-nil, additionally receives every simulation event
	// (combined with the collector via metrics.Tee when Metrics is set).
	Probe metrics.Probe
	// DisableEventSkip turns off event-driven cycle skipping (see
	// network.Config.DisableEventSkip and docs/performance.md): with it
	// set the run steps every cycle individually instead of leaping the
	// clock over provably empty ones. It is an execution strategy, not a
	// model change — the Result is bit-identical either way, so it never
	// enters cache keys. Off by default (skipping on).
	DisableEventSkip bool
}

func (p RunParams) withDefaults() RunParams {
	if len(p.Lengths) == 0 {
		p.Lengths = DefaultLengths
	}
	if p.WarmupCycles == 0 {
		p.WarmupCycles = 20000
	}
	if p.MeasureCycles == 0 {
		p.MeasureCycles = 40000
	}
	return p
}

// instrument builds the probe to hand the simulator and, when Metrics is
// set, the collector whose snapshot the Result will carry.
func (p RunParams) instrument(topo topology.Topology) (metrics.Probe, *metrics.Collector) {
	if !p.Metrics {
		return p.Probe, nil
	}
	coll := metrics.NewCollector(topo, p.MetricsOptions)
	return metrics.Tee(coll, p.Probe), coll
}

// Config describes one simulation run on the physical-channel simulator.
type Config struct {
	// Routing selects the algorithm (and with it the topology).
	Routing routing.Algorithm
	// RunParams carry the simulator-independent parameters.
	RunParams
	// Output and Input select arbitration policies; nil selects the
	// paper's defaults (lowest-dimension output, local FCFS input).
	Output network.OutputPolicy
	Input  network.InputPolicy
	// RoutingDelay is forwarded to the network: extra cycles per routing
	// decision (see network.Config).
	RoutingDelay int64
}

func (c *Config) withDefaults() Config {
	out := *c
	out.RunParams = out.RunParams.withDefaults()
	return out
}

// minCycle clamps an injection horizon to a run-window boundary.
func minCycle(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// meanLength is the expected packet length under the configured mix.
func meanLength(lengths []int) float64 {
	total := 0
	for _, l := range lengths {
		total += l
	}
	return float64(total) / float64(len(lengths))
}

// Result summarizes one run. The JSON field names are part of the sweep
// report schema (see Report and docs/sweeps.md).
type Result struct {
	Algorithm string `json:"algorithm"`
	Pattern   string `json:"pattern"`
	// InjectionRate is the offered load in flits per node per cycle.
	InjectionRate float64 `json:"injection_rate"`
	// OfferedFlitsPerUs is the total offered load in flits/us
	// network-wide (InjectionRate x nodes x 20).
	OfferedFlitsPerUs float64 `json:"offered_flits_per_us"`
	// ThroughputFlitsPerUs is the measured delivery rate network-wide
	// in flits per microsecond — the paper's throughput axis.
	ThroughputFlitsPerUs float64 `json:"throughput_flits_per_us"`
	// AvgLatencyUs is the mean message latency (generation to tail
	// consumption) in microseconds — the paper's latency axis.
	AvgLatencyUs float64 `json:"avg_latency_us"`
	// P95LatencyUs is the 95th-percentile latency in microseconds.
	P95LatencyUs float64 `json:"p95_latency_us"`
	// AvgHops is the mean header path length of measured packets.
	AvgHops float64 `json:"avg_hops"`
	// Packets is the number of packets the latency average covers.
	Packets int64 `json:"packets"`
	// MaxQueue is the longest source queue seen at the end of the run;
	// sustainability requires it to stay small and bounded.
	MaxQueue int `json:"max_queue"`
	// QueueGrowth is the increase of total in-flight packets across the
	// measurement window; a saturated network grows without bound.
	QueueGrowth int `json:"queue_growth"`
	// Sustainable is the harness's judgement that the offered load was
	// accepted: delivery kept pace with generation and queues stayed
	// bounded.
	Sustainable bool `json:"sustainable"`
	// Deadlocked reports that the network watchdog fired (only possible
	// for routing algorithms outside the turn model, and never with
	// recovery enabled).
	Deadlocked bool `json:"deadlocked"`
	// Delivery accounting over the measurement window (schema v3; all
	// zero except Delivered unless faults or recovery are configured).
	// Delivered counts packets consumed at their destination; Dropped
	// counts packets abandoned (destination unreachable under the fault
	// set, or retry budget exhausted); Aborted counts worm aborts by
	// deadlock recovery; Retried counts source retries after aborts.
	Delivered int64 `json:"delivered"`
	Dropped   int64 `json:"dropped,omitempty"`
	Aborted   int64 `json:"aborted,omitempty"`
	Retried   int64 `json:"retried,omitempty"`
	// DeliveredFraction is Delivered/(Delivered+Dropped), the graceful-
	// degradation figure of merit; 1 when nothing was dropped.
	DeliveredFraction float64 `json:"delivered_fraction"`
	// FaultEvents counts channel-break events during the window.
	FaultEvents int64 `json:"fault_events,omitempty"`
	// Fault-aware routing accounting over the measurement window (schema
	// v4; zero unless RunParams.FaultRouting is enabled). MaskedFaults
	// counts routing decisions whose candidate set was narrowed around
	// known-broken channels; MisrouteHops counts nonminimal detour hops
	// actually taken.
	MaskedFaults int64 `json:"masked_faults,omitempty"`
	MisrouteHops int64 `json:"misroute_hops,omitempty"`
	// Metrics is the collector snapshot of the measurement window, set
	// only when RunParams.Metrics was on (schema v2; see docs/metrics.md).
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

func (r Result) String() string {
	return fmt.Sprintf("%s/%s rate=%.4f thr=%.1f flits/us lat=%.2f us (p95 %.2f) hops=%.2f sustainable=%v",
		r.Algorithm, r.Pattern, r.InjectionRate, r.ThroughputFlitsPerUs, r.AvgLatencyUs, r.P95LatencyUs, r.AvgHops, r.Sustainable)
}

// Run executes one simulation and reports the measurement-window results.
// A deadlock (possible only for non-turn-model routing) is reported in the
// Result rather than as an error.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	topo := cfg.Routing.Topology()
	probe, coll := cfg.RunParams.instrument(topo)
	net := network.New(cfg.networkConfig(probe))
	return measure(cfg.RunParams, cfg.Routing.Name(), topo, net, coll, nil)
}

// networkConfig is the network's configuration for the run, with the
// given probe attached.
func (c *Config) networkConfig(probe metrics.Probe) network.Config {
	return network.Config{
		Routing:          c.Routing,
		Output:           c.Output,
		Input:            c.Input,
		Seed:             c.Seed,
		WatchdogCycles:   c.WatchdogCycles,
		FaultPlan:        c.FaultPlan,
		Recovery:         c.Recovery,
		FaultRouting:     c.FaultRouting,
		RoutingDelay:     c.RoutingDelay,
		Probe:            probe,
		DisableEventSkip: c.DisableEventSkip,
	}
}

// generation is what measure builds for a run's message generation and
// latency statistics — the RNG, the arrival processes and the latency
// sample — kept so that a sweep worker's next point can reuse it.
type generation struct {
	rng *rand.Rand
	arr arrivals
	lat stats.Sample
}

// measure drives an engine through warmup and measurement with Poisson
// per-processor generation and collects the Result. cfg must already have
// defaults applied; coll, when non-nil, is the collector already attached
// to the engine whose snapshot the Result will carry. gen, when non-nil, is
// reused for the run's generation state instead of building it afresh —
// reseeded and reset, so the Result is the same either way.
func measure(cfg RunParams, algName string, topo topology.Topology, net simulator, coll *metrics.Collector, gen *generation) Result {
	if gen == nil {
		gen = new(generation)
	}
	if gen.rng == nil {
		gen.rng = rand.New(rand.NewSource(cfg.Seed + 1))
	} else {
		gen.rng.Seed(cfg.Seed + 1)
	}
	rng := gen.rng

	// Fixed points of permutation patterns consume their own messages
	// locally and never load the network, so the effective offered load
	// counts only the injecting sources.
	injecting := traffic.InjectingFraction(cfg.Pattern, topo)
	res := Result{
		Algorithm:         algName,
		Pattern:           cfg.Pattern.Name(),
		InjectionRate:     cfg.InjectionRate,
		OfferedFlitsPerUs: cfg.InjectionRate * float64(topo.Nodes()) * injecting * network.FlitsPerMicrosecond,
	}

	// Per-node Poisson arrival processes: the mean interarrival time in
	// cycles delivers InjectionRate flits per cycle on average.
	// arr.generate fires every arrival due at the cycle and reports the
	// first future cycle at which any node generates again — the injection
	// horizon the event-driven clock may leap to. It costs the arrivals, not
	// the nodes (see arrivals).
	arr := &gen.arr
	arr.reset(rng, topo.Nodes(), meanLength(cfg.Lengths)/cfg.InjectionRate)
	fire := func(node topology.NodeID) {
		dst := cfg.Pattern.Dest(node, rng)
		if dst == node {
			return // fixed point: consumed locally
		}
		net.Enqueue(node, dst, cfg.Lengths[rng.Intn(len(cfg.Lengths))])
	}

	lat := &gen.lat
	lat.Reset()
	var hops stats.Accumulator
	deadlocked := false

	// Both run windows drive the engine event to event: each iteration
	// generates this cycle's arrivals, promises the engine that none come
	// before the next generation cycle (capped at the window end), and
	// steps. A busy network advances one cycle per Step as before; an idle
	// one leaps straight to the horizon, which is what makes low-rate
	// sweep regions and long drain tails cheap (see docs/performance.md).
	// The generation cycles are identical to the stepped schedule —
	// skipped cycles are exactly those where generate would have drawn
	// nothing — so the RNG stream, and with it every Result, is
	// bit-identical in both modes.
	for !deadlocked && net.Cycle() < cfg.WarmupCycles {
		nextGen := arr.generate(net.Cycle(), fire)
		net.SetInjectionHorizon(minCycle(nextGen, cfg.WarmupCycles))
		if err := net.Step(); err != nil {
			deadlocked = true
		}
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
	if coll != nil {
		coll.BeginMeasurement(measureStart)
	}

	measureEnd := measureStart + cfg.MeasureCycles
	for !deadlocked && net.Cycle() < measureEnd {
		nextGen := arr.generate(net.Cycle(), fire)
		net.SetInjectionHorizon(minCycle(nextGen, measureEnd))
		if err := net.Step(); err != nil {
			deadlocked = true
		}
		for _, p := range net.TakeDelivered() {
			if p.Created >= measureStart-cfg.WarmupCycles/2 {
				lat.Add(network.Microseconds(p.Latency()))
				hops.Add(float64(p.Hops))
			}
		}
	}

	elapsed := net.Cycle() - measureStart
	if elapsed > 0 {
		res.ThroughputFlitsPerUs = float64(net.FlitsConsumed()-flitsBefore) / network.Microseconds(elapsed)
	}
	res.AvgLatencyUs = lat.Mean()
	res.P95LatencyUs = lat.Percentile(95)
	res.AvgHops = hops.Mean()
	res.Packets = lat.Count()
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

	// Sustainability per Section 6: the number of packets queued at the
	// sources stays small and bounded. By conservation, offered load the
	// network does not accept accumulates as backlog, so bounded backlog
	// growth across the measurement window is the whole criterion: we
	// allow a small absolute slack plus 2% of the packets generated in
	// the window.
	expected := expectedPackets(cfg, topo.Nodes()) * injecting
	bounded := float64(res.QueueGrowth) <= 50+0.02*expected
	res.Sustainable = !deadlocked && bounded
	if coll != nil {
		res.Metrics = coll.Snapshot()
	}
	return res
}

// expectedPackets estimates how many packets the whole network generates
// during the measurement window.
func expectedPackets(cfg RunParams, nodes int) float64 {
	return cfg.InjectionRate * float64(cfg.MeasureCycles) * float64(nodes) / meanLength(cfg.Lengths)
}

// Sweep runs the configuration at each injection rate and returns one
// Result per rate, in order. It is the engine behind the latency-versus-
// throughput curves of Figures 13-16.
func Sweep(base Config, rates []float64) []Result {
	out := make([]Result, 0, len(rates))
	for i, r := range rates {
		cfg := base
		cfg.InjectionRate = r
		cfg.Seed = base.Seed + int64(i)*7919
		out = append(out, Run(cfg))
	}
	return out
}

// SaturationBisect refines the maximum sustainable injection rate by
// bisection: lo must be sustainable and hi unsustainable (verified with
// one run each; it panics otherwise, since bisection would be meaningless)
// and each iteration halves the bracket. It returns the highest rate
// found sustainable and the throughput measured there. Use it after a
// coarse Sweep has located the knee's neighborhood.
func SaturationBisect(base Config, lo, hi float64, iters int) (rate, throughput float64) {
	run := func(r float64, seedSalt int64) Result {
		cfg := base
		cfg.InjectionRate = r
		cfg.Seed = base.Seed + seedSalt
		return Run(cfg)
	}
	low := run(lo, 1)
	if !low.Sustainable {
		panic(fmt.Sprintf("sim: SaturationBisect lower bound %v is not sustainable", lo))
	}
	if high := run(hi, 2); high.Sustainable {
		panic(fmt.Sprintf("sim: SaturationBisect upper bound %v is sustainable", hi))
	}
	rate, throughput = lo, low.ThroughputFlitsPerUs
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		res := run(mid, 3+int64(i))
		if res.Sustainable {
			lo = mid
			rate, throughput = mid, res.ThroughputFlitsPerUs
		} else {
			hi = mid
		}
	}
	return rate, throughput
}

// SaturationThroughput estimates the maximum sustainable throughput (in
// flits per microsecond) by sweeping injection rates upward from lo to hi
// in the given number of steps and reporting the highest sustained
// delivery rate observed.
func SaturationThroughput(base Config, lo, hi float64, steps int) (rate float64, throughput float64) {
	if steps < 2 {
		panic("sim: need at least two steps")
	}
	best, bestRate := 0.0, lo
	for i := 0; i < steps; i++ {
		r := lo + (hi-lo)*float64(i)/float64(steps-1)
		cfg := base
		cfg.InjectionRate = r
		cfg.Seed = base.Seed + int64(i)*104729
		res := Run(cfg)
		if res.Sustainable && res.ThroughputFlitsPerUs > best {
			best = res.ThroughputFlitsPerUs
			bestRate = r
		}
	}
	return bestRate, best
}
