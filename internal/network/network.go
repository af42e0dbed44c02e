// Package network is a cycle-accurate flit-level simulator of wormhole
// routing in direct networks, modeled on the simulator of Section 6 of the
// paper: each router has a single-flit buffer per input channel, a pair of
// unidirectional channels connects each pair of neighboring routers and
// each router to its local processor, messages blocked from entering the
// network queue at the source, and arriving messages are consumed
// immediately.
//
// Time advances in cycles; one cycle is the time a channel needs to
// transmit one flit. With the paper's channel bandwidth of 20 flits/us,
// one cycle is 0.05 us (see FlitsPerMicrosecond).
//
// The engine-independent machinery — source queues, the injection
// worklist, fault wiring, retry/drop accounting, the watchdog, and flat
// topology tables — lives in the shared internal/engine core; this package
// owns the physical-channel model, where a worm holds whole channels and
// advances as a unit.
package network

import (
	"fmt"
	"math/rand"

	"turnmodel/internal/engine"
	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// FlitsPerMicrosecond is the channel bandwidth of the paper's simulations:
// every channel moves 20 flits per microsecond, so one simulator cycle
// corresponds to 0.05 us.
const FlitsPerMicrosecond = 20

// Config configures a Network.
type Config struct {
	// Routing is the routing algorithm; it determines the topology.
	Routing routing.Algorithm
	// Output arbitrates among available permitted output channels.
	// Defaults to LowestDimension, the paper's "xy" policy.
	Output OutputPolicy
	// Input orders competing headers within a router. Defaults to
	// LocalFCFS, the paper's policy.
	Input InputPolicy
	// Seed seeds the arbitration RNG (only used by randomized policies).
	Seed int64
	// WatchdogCycles is how long the network may go without any flit
	// movement while packets are in flight before Step reports a
	// deadlock. 0 selects the default (10000); negative disables.
	WatchdogCycles int64
	// Faults lists broken unidirectional channels. A faulted channel is
	// never allocated; packets route around it when their algorithm
	// offers an alternative (the fault-tolerance benefit the paper
	// claims for adaptive and especially nonminimal routing) and stall
	// until the watchdog fires when it does not. Faults is shorthand for
	// FaultPlan.Static; the two lists are merged.
	Faults []topology.Channel
	// FaultPlan is the full fault workload: static channels, failed
	// nodes, and a seeded random per-cycle link-failure process with
	// optional repair (see fault.Plan). The zero plan injects nothing.
	FaultPlan fault.Plan
	// Recovery switches the watchdog from fail-stop to deadlock
	// recovery: a worm whose header has not moved for
	// Recovery.StallCycles is aborted — its flits drained, its buffers
	// and channels released — and retried from the source after capped
	// exponential backoff, or dropped once the retry budget is spent or
	// its destination is unreachable under the current fault set. With
	// Recovery.Enabled, Step never returns DeadlockError.
	Recovery fault.Recovery
	// FaultRouting enables in-network fault masking: the routing
	// algorithm is wrapped by routing.NewFaultAware, so candidates on
	// channels the deciding router knows are broken are filtered out when
	// a legal alternative survives, with an optional bounded misroute
	// fallback along turns the algorithm already permits (see
	// docs/fault-routing.md). Ignored when the fault plan is empty; off
	// by default.
	FaultRouting fault.RoutingPolicy
	// RoutingDelay models the cost Section 7 warns adaptive routing may
	// add ("more complex control logic for route selection ... may
	// increase node delay"): each routing decision takes RoutingDelay
	// cycles, so a header spends max(1, RoutingDelay) cycles per hop.
	// 0 (and 1) give the paper's idealized single-cycle router.
	RoutingDelay int64
	// Shards partitions the network into that many contiguous spatial
	// domains stepped in parallel by a persistent worker pool (see
	// docs/performance.md). Results are bit-identical to serial stepping
	// at every shard count. Values <= 1 step serially. Sharding requires
	// the default LowestDimension output policy (randomized arbitration
	// consumes a shared RNG stream whose draw order sharding would
	// change); other policies silently fall back to serial stepping.
	Shards int
	// Probe receives simulation events (see metrics.Probe). nil disables
	// instrumentation at zero cost: emission is batched through the
	// engine core's emitter, whose no-probe paths return immediately and
	// keep the Step hot loop allocation-free (TestStepAllocs pins this).
	Probe metrics.Probe
	// DisableEventSkip turns off event-driven cycle skipping (see
	// SetInjectionHorizon): every cycle is then stepped individually even
	// when the caller has promised an injection horizon. Like Shards it
	// is an execution strategy, not a model change — results are
	// bit-identical either way. Off by default (skipping available).
	DisableEventSkip bool
}

// DeadlockError is returned by Step when the watchdog detects that no flit
// has moved for the configured number of cycles although packets are in
// flight — the signature of a routing deadlock.
type DeadlockError = engine.DeadlockError

// Network is the simulator state. It is not safe for concurrent use; run
// independent simulations in independent Networks.
type Network struct {
	core engine.Core

	topo   topology.Topology
	alg    routing.Algorithm
	output OutputPolicy
	input  InputPolicy
	rng    *rand.Rand

	dims  int
	dims2 int
	ports int // per router: 2n input-buffer ports plus the injection port

	occupied []bool  // buffer id -> flit present
	outOwner []*worm // router*2n+dir -> holder of the output channel
	faulted  []bool  // router*2n+dir -> broken (aliases core.Faulted)

	// routerOf and portOf decode buffer ids without division.
	routerOf []int32
	portOf   []int16

	// masked implements fault-aware routing; nil unless enabled with a
	// non-empty fault plan. appender is the routing algorithm's optional
	// allocation-free candidate path; fastOutput short-circuits the
	// output policy when it is the default LowestDimension (first free
	// candidate), keeping the policy interface out of the hot loop.
	masked     *routing.FaultAware
	appender   routing.CandidateAppender
	fastOutput bool

	active    []*worm
	delivered []*Packet
	// wait holds the headers waiting for an output, filed by router in
	// input-policy order (see engine.WaitTable); phase 2 walks it instead
	// of collecting and sorting requests.
	wait *engine.WaitTable[*worm]

	routingDelay int64

	// victims is the per-cycle scratch list of timed-out worms;
	// candScratch is reused by reachable()'s candidate queries.
	victims     []*worm
	candScratch []topology.Direction
	// channelFlits counts the flits each output channel has carried,
	// for load analysis (router*2n+dir).
	channelFlits []int64

	// freeBase and freeFn keep the Step hot loop allocation-free: freeFn
	// is allocated once with freeBase rebound per request instead of
	// closing over a fresh base per header.
	freeBase int
	freeFn   func(topology.Direction) bool

	// Sharded stepping (see shard.go): dsc holds one netDomain per
	// spatial domain and the Fn fields are the prebound per-phase worker
	// tasks; shards mirrors core.ShardCount() and is 1 for serial Step.
	shards     int
	dsc        []netDomain
	classifyFn func(d int)
	planFn     func(d int)
	applyFn    func(d int)
}

// New builds a network simulator for the given configuration.
func New(cfg Config) *Network {
	if cfg.Routing == nil {
		panic("network: Config.Routing is required")
	}
	topo := cfg.Routing.Topology()
	n := &Network{
		topo:   topo,
		alg:    cfg.Routing,
		output: cfg.Output,
		input:  cfg.Input,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		dims:   topo.Dims(),
	}
	if n.output == nil {
		n.output = LowestDimension{}
	}
	if n.input == nil {
		n.input = LocalFCFS{}
	}
	n.dims2 = 2 * n.dims
	n.ports = n.dims2 + 1
	n.occupied = make([]bool, topo.Nodes()*n.ports)
	n.outOwner = make([]*worm, topo.Nodes()*n.dims2)
	n.routerOf = make([]int32, topo.Nodes()*n.ports)
	n.portOf = make([]int16, topo.Nodes()*n.ports)
	for b := range n.routerOf {
		n.routerOf[b] = int32(b / n.ports)
		n.portOf[b] = int16(b % n.ports)
	}
	n.core = engine.NewCore(engine.Config{
		Topo:             topo,
		WatchdogCycles:   cfg.WatchdogCycles,
		Faults:           cfg.Faults,
		FaultPlan:        cfg.FaultPlan,
		Recovery:         cfg.Recovery,
		FaultRouting:     cfg.FaultRouting,
		Probe:            cfg.Probe,
		Shards:           cfg.Shards,
		DisableEventSkip: cfg.DisableEventSkip,
	})
	n.core.Bind()
	n.core.InjFree = func(node topology.NodeID) bool {
		return !n.occupied[int(node)*n.ports+n.dims2]
	}
	n.core.InjPlace = n.placeWorm
	n.core.Reachable = n.reachable
	n.core.OnEpochChange = func() {
		// The fault set changed, so masked candidate sets computed from
		// the old set are stale: let waiting headers (those not yet
		// granted an output channel) re-decide.
		for _, w := range n.active {
			if !w.arrived && w.outDir == noDirection {
				w.candsValid = false
			}
		}
	}
	// Alias the core's fault bitmap: output allocation reads it with one
	// load, and fault transitions are visible immediately.
	n.faulted = n.core.Faulted
	if n.core.Health != nil {
		n.masked = routing.NewFaultAware(cfg.Routing, n.core.Health, n.core.FaultPol)
	}
	n.appender, _ = cfg.Routing.(routing.CandidateAppender)
	_, n.fastOutput = n.output.(LowestDimension)
	n.routingDelay = cfg.RoutingDelay
	n.channelFlits = make([]int64, topo.Nodes()*n.dims2)
	n.freeFn = func(d topology.Direction) bool {
		return n.outOwner[n.freeBase+int(d)] == nil && !n.faulted[n.freeBase+int(d)]
	}
	n.initShardDomains(cfg)
	n.wait = engine.NewWaitTable[*worm](&n.core)
	return n
}

// newWorm puts the packet's header into the node's free injection buffer,
// where it starts waiting for an output.
func (n *Network) newWorm(node topology.NodeID, p *Packet) *worm {
	inj := n.bufID(node, n.dims2)
	w := &worm{
		pkt:           p,
		sent:          1,
		outDir:        noDirection,
		headerArrival: n.core.Cycle,
		movedAt:       -1,
		headRouter:    node,
		inDir:         topology.Invalid,
	}
	w.wait.Owner = w
	w.path = append(w.pathBuf[:0], inj)
	n.occupied[inj] = true
	n.enlist(w)
	return w
}

// placeWorm is the core's injection hook.
func (n *Network) placeWorm(node topology.NodeID, p *Packet) {
	n.active = append(n.active, n.newWorm(node, p))
}

// enlist records that the worm's header entered a buffer at its head
// router and now waits there for an output, at the priority the input
// policy gives it.
func (n *Network) enlist(w *worm) {
	n.wait.Enlist(&w.wait, int32(w.headRouter), n.input.Key(w), w.pkt.ID)
}

// ChannelLoad reports how many flits the channel leaving node in direction
// d has carried since the start of the simulation.
func (n *Network) ChannelLoad(node topology.NodeID, d topology.Direction) int64 {
	return n.channelFlits[int(node)*n.dims2+int(d)]
}

// Topology returns the simulated network's topology.
func (n *Network) Topology() topology.Topology { return n.topo }

// Routing returns the routing algorithm in use.
func (n *Network) Routing() routing.Algorithm { return n.alg }

// Cycle is the current simulation time in cycles.
func (n *Network) Cycle() int64 { return n.core.Cycle }

// SetInjectionHorizon promises that no Enqueue will happen at a cycle
// strictly before the given one, which lets Step leap the clock over
// provably empty cycles once the network is idle (event-driven cycle
// skipping; see engine.Core.SetInjectionHorizon and docs/performance.md).
// After a Step the clock may therefore have advanced by more than one:
// drive the simulation with `for n.Cycle() < end { ... n.Step() }` rather
// than counting steps. Results are bit-identical to stepping every cycle.
// Passing a cycle at or before the current one withdraws the promise;
// Config.DisableEventSkip disables leaping regardless.
func (n *Network) SetInjectionHorizon(cycle int64) { n.core.SetInjectionHorizon(cycle) }

// CyclesSkipped reports how many cycles the event-driven clock leaped
// over instead of stepping — execution telemetry; results never depend on
// it.
func (n *Network) CyclesSkipped() int64 { return n.core.CyclesSkipped() }

// Microseconds converts a cycle count to microseconds at the paper's
// channel bandwidth.
func Microseconds(cycles int64) float64 { return float64(cycles) / FlitsPerMicrosecond }

// Enqueue generates a message of length flits from src to dst at the
// current cycle. The message waits in the source queue until the injection
// channel is free. Self-addressed messages are not meaningful in the
// paper's workloads and are rejected.
func (n *Network) Enqueue(src, dst topology.NodeID, length int) *Packet {
	if length < 1 {
		panic("network: packet length must be at least 1 flit")
	}
	if src == dst {
		panic("network: self-addressed packet")
	}
	return n.core.Enqueue(src, dst, length)
}

// QueueLen reports how many generated messages wait at the node's source
// queue (not yet injecting).
func (n *Network) QueueLen(node topology.NodeID) int { return n.core.QueueLen(node) }

// MaxQueueLen reports the longest current source queue; the paper deems a
// throughput sustainable while source queues stay small and bounded.
func (n *Network) MaxQueueLen() int { return n.core.MaxQueueLen() }

// InFlight counts packets that are queued, have flits in the network, or
// are waiting out a retry backoff after an abort. Dropped packets are not
// in flight: enqueued = delivered + dropped + in-flight at all times.
func (n *Network) InFlight() int { return len(n.active) + n.core.Backlog() }

// FlitsConsumed is the total number of flits delivered to destination
// processors since the start of the simulation.
func (n *Network) FlitsConsumed() int64 { return n.core.FlitsConsumed }

// PacketsDelivered is the total number of completed packets.
func (n *Network) PacketsDelivered() int64 { return n.core.PacketsDone }

// PacketsAborted counts worm aborts by deadlock recovery (a packet aborted
// k times contributes k).
func (n *Network) PacketsAborted() int64 { return n.core.PacketsAborted }

// PacketsRetried counts source retries of aborted packets.
func (n *Network) PacketsRetried() int64 { return n.core.PacketsRetried }

// PacketsDropped counts packets abandoned: destination unreachable under
// the current fault set, or retry budget exhausted.
func (n *Network) PacketsDropped() int64 { return n.core.PacketsDropped }

// MaskedFaults counts routing decisions whose candidate set was narrowed
// (or replaced by a misroute fallback) because the deciding router knew
// about broken channels; 0 unless fault-aware routing is enabled.
func (n *Network) MaskedFaults() int64 {
	if n.masked == nil {
		return 0
	}
	total := n.masked.MaskedDecisions()
	// The sharded step routes each request through its domain's wrapper
	// (the wrapper's counters are not concurrent-safe); every request is
	// processed exactly once, so the sum matches the serial count.
	for d := range n.dsc {
		if m := n.dsc[d].masked; m != nil {
			total += m.MaskedDecisions()
		}
	}
	return total
}

// MisrouteHops counts header hops taken from a misroute fallback set —
// the nonminimal detours of fault-aware routing; 0 unless enabled.
func (n *Network) MisrouteHops() int64 { return n.core.MisrouteHops }

// FaultEvents counts channel-break events applied so far, including static
// faults. ActiveFaults is the number of channels broken right now.
func (n *Network) FaultEvents() int64 { return n.core.FaultEvents() }

// ActiveFaults reports how many channels are currently broken.
func (n *Network) ActiveFaults() int { return n.core.ActiveFaults() }

// TakeDelivered returns the packets completed since the previous call and
// resets the internal list.
func (n *Network) TakeDelivered() []*Packet {
	out := n.delivered
	n.delivered = nil
	return out
}

func (n *Network) bufID(node topology.NodeID, port int) int32 {
	return int32(int(node)*n.ports + port)
}

func (n *Network) bufRouter(buf int32) topology.NodeID {
	return topology.NodeID(n.routerOf[buf])
}

func (n *Network) bufPort(buf int32) int { return int(n.portOf[buf]) }

// Step advances the simulation by one cycle: it injects waiting headers,
// routes and allocates output channels for waiting headers (input and
// output selection policies arbitrate), and then advances every worm that
// can move by one hop. It returns a *DeadlockError if the watchdog fires.
//
// With Config.Shards > 1 the cycle runs on the domain-decomposed path
// (see shard.go), which produces bit-identical results.
func (n *Network) Step() error {
	if n.shards > 1 {
		return n.stepSharded()
	}
	c := &n.core
	progress := false

	// Phase 0: fault transitions and deadlock recovery.
	c.FaultPhase()
	if c.Recovery.Enabled {
		n.recoveryPhase()
	}

	// Phase 1: injection, over the core's worklist of nodes with queued
	// work. Due retries take priority over fresh messages; packets whose
	// destination the fault set has cut off entirely are dropped without
	// entering the network.
	if c.InjectPhase() {
		progress = true
	}

	// Phase 2: routing and output allocation for the waiting headers,
	// router by router in input-policy order, straight off the wait table.
	for d := 0; d < n.wait.Parts(); d++ {
		n.arbitrate(d, n.masked, &c.Em)
	}

	// Phase 3: movement. Worms advance at most one hop each; a worm
	// freed by another worm's tail may move in the same cycle, so
	// iterate to a fixpoint.
	for {
		moved := false
		for _, w := range n.active {
			if w.movedAt != c.Cycle && n.tryAdvance(w) {
				moved = true
			}
		}
		if !moved {
			break
		}
		progress = true
	}

	// Phase 4: retire completed worms, then close the cycle.
	n.retirePhase()
	return n.finishStep(progress)
}

// arbitrate is phase 2 for one part of the wait table: every header
// waiting at one of the part's routers — visited in ascending router order
// and, within a router, in input-policy order — is marked arrived if it sits
// at its destination, and otherwise offered its candidate outputs. A header
// leaves the table when it is granted an output or arrives; a blocked one
// stays where it is for the next cycle. The serial step walks every part
// with its own fault-masking wrapper and emitter; the sharded step runs one
// part per domain with the domain's (see classifyDomain).
func (n *Network) arbitrate(d int, masked *routing.FaultAware, em *engine.Emitter) {
	c := &n.core
	for it := n.wait.Walk(d); it.Next(); {
		w := it.Waiter()
		if n.routingDelay > 0 && c.Cycle-w.headerArrival < n.routingDelay {
			// The routing decision is still in the router pipeline
			// (Section 7's node-delay cost of adaptive route selection).
			continue
		}
		r := w.headRouter
		if r == w.pkt.Dst {
			// Ejection channels are always available; the message
			// starts draining into the local processor.
			w.arrived = true
			it.Delist()
			continue
		}
		if !w.candsValid {
			// The permitted outputs depend only on (router, dst, arrival
			// direction), all fixed while the header waits in this buffer,
			// so the candidate list is computed once per hop rather than
			// once per cycle.
			if masked != nil {
				w.cands, w.candsMis = masked.FaultCandidates(r, w.pkt.Dst, w.inDir, w.inWrap, w.misroutes)
			} else if n.appender != nil {
				w.cands = n.appender.AppendCandidates(w.candBuf[:0], r, w.pkt.Dst, w.inDir, w.inWrap)
			} else {
				w.cands = n.alg.Candidates(r, w.pkt.Dst, w.inDir, w.inWrap)
			}
			w.candsValid = true
		}
		base := int(r) * n.dims2
		if n.fastOutput {
			// LowestDimension is "first free candidate": inline it and
			// skip the policy's closure indirection. (The sharded step
			// requires it, so this is its only arbitration.)
			for _, dd := range w.cands {
				if k := base + int(dd); n.outOwner[k] == nil && !n.faulted[k] {
					n.outOwner[k] = w
					w.outDir = dd
					it.Delist()
					break
				}
			}
			if w.outDir == noDirection {
				em.Blocked(c.Cycle, r)
			}
			continue
		}
		n.freeBase = base
		if dd, ok := n.output.Choose(w.cands, n.freeFn, w.inDir, n.rng); ok {
			n.outOwner[base+int(dd)] = w
			w.outDir = dd
			it.Delist()
		} else {
			em.Blocked(c.Cycle, r)
		}
	}
}

// recoveryPhase aborts any worm whose header has been stuck past the stall
// threshold (the timeout criterion of software-based deadlock recovery: a
// genuinely deadlocked worm never moves again, and a worm starved that long
// is treated the same). It is always serial: aborts mutate the active list
// and shared retry state.
func (n *Network) recoveryPhase() {
	c := &n.core
	n.victims = n.victims[:0]
	for _, w := range n.active {
		if !w.arrived && c.Cycle-w.headerArrival >= c.Recovery.StallCycles {
			n.victims = append(n.victims, w)
		}
	}
	for _, w := range n.victims {
		n.abort(w)
	}
}

// retirePhase removes completed worms from the active list, preserving
// order, and records their delivery.
func (n *Network) retirePhase() {
	c := &n.core
	out := n.active[:0]
	for _, w := range n.active {
		if w.delivered == w.pkt.Length {
			w.pkt.Arrived = c.Cycle
			n.delivered = append(n.delivered, w.pkt)
			c.PacketsDone++
			p := w.pkt
			c.Em.Deliver(c.Cycle, p.Src, p.Dst, p.Length, p.Hops,
				p.Injected-p.Created, p.Arrived-p.Injected)
		} else {
			out = append(out, w)
		}
	}
	for i := len(out); i < len(n.active); i++ {
		n.active[i] = nil
	}
	n.active = out
}

// finishStep closes the cycle through the core and builds the deadlock
// error if the watchdog fired.
func (n *Network) finishStep(progress bool) error {
	c := &n.core
	if c.EndStep(progress, len(n.active)) {
		stuck := make([]*Packet, 0, 4)
		for _, w := range n.active {
			stuck = append(stuck, w.pkt)
			if len(stuck) == 4 {
				break
			}
		}
		return c.Deadlock(len(n.active), stuck)
	}
	return nil
}

// abort yanks a blocked worm out of the network: every buffer its flits
// occupy is freed and every channel it still holds (including a pending
// output allocation) is released; the shared core then requeues the packet
// at its source with backoff or drops it. Only never-arrived worms are
// aborted, and an arrived worm always consumes a flit each cycle, so a
// victim has delivered no flits — aborting loses nothing already consumed.
func (n *Network) abort(w *worm) {
	last := len(w.path) - 1
	inNet := w.inNetwork()
	tailIdx := last - (inNet - 1)
	for i := tailIdx; i <= last; i++ {
		n.occupied[w.path[i]] = false
	}
	for j := tailIdx + 1; j <= last; j++ {
		from := n.bufRouter(w.path[j-1])
		dir := n.bufPort(w.path[j])
		n.outOwner[int(from)*n.dims2+dir] = nil
	}
	if w.outDir != noDirection {
		n.outOwner[int(w.headRouter)*n.dims2+int(w.outDir)] = nil
		w.outDir = noDirection
	}
	n.wait.Delist(&w.wait)
	for i, x := range n.active {
		if x == w {
			n.active = append(n.active[:i], n.active[i+1:]...)
			break
		}
	}
	n.core.FinishAbort(w.pkt)
}

// reachable reports whether a packet injected at src can reach dst under
// the routing algorithm, avoiding currently faulted channels. It searches
// the (node, inPort, wrap) state space the algorithm's Candidates function
// is defined over, with stamped visited marks (scratch shared through the
// engine core) so repeated queries do not allocate.
func (n *Network) reachable(src, dst topology.NodeID) bool {
	if src == dst {
		return true
	}
	c := &n.core
	g := c.Grid
	states := n.topo.Nodes() * n.ports * 2
	if len(c.ReachSeen) < states {
		c.ReachSeen = make([]int32, states)
		c.ReachQueue = make([]int32, 0, states)
	}
	c.ReachStamp++
	stamp := c.ReachStamp
	// inPort 2n encodes "injected here" (arrival direction Invalid).
	start := int32((int(src)*n.ports + n.dims2) * 2)
	c.ReachSeen[start] = stamp
	q := append(c.ReachQueue[:0], start)
	found := false
	for head := 0; head < len(q) && !found; head++ {
		s := q[head]
		node := topology.NodeID(int(s) / 2 / n.ports)
		inPort := int(s) / 2 % n.ports
		inWrap := s&1 == 1
		in := topology.Invalid
		if inPort < n.dims2 {
			in = topology.Direction(inPort)
		}
		var cands []topology.Direction
		if n.masked != nil {
			// Under fault-aware routing the packet follows the masked
			// relation, which can also reach around faults by misrouting;
			// budget is ignored, an over-approximation that at worst
			// retries a packet that will be aborted again.
			cands, _ = n.masked.FaultCandidates(node, dst, in, inWrap, 0)
		} else if n.appender != nil {
			n.candScratch = n.appender.AppendCandidates(n.candScratch[:0], node, dst, in, inWrap)
			cands = n.candScratch
		} else {
			cands = n.alg.Candidates(node, dst, in, inWrap)
		}
		for _, d := range cands {
			if n.faulted[int(node)*n.dims2+int(d)] {
				continue
			}
			nb, ok := g.Neighbor(node, d)
			if !ok {
				continue
			}
			if nb == dst {
				found = true
				break
			}
			next := int32((int(nb)*n.ports + int(d)) * 2)
			if g.Wrap(node, d) {
				next++
			}
			if c.ReachSeen[next] != stamp {
				c.ReachSeen[next] = stamp
				q = append(q, next)
			}
		}
	}
	c.ReachQueue = q[:0]
	return found
}

// tryAdvance moves the worm forward one hop if it can: the header moves
// into the next free buffer (or a flit is consumed at the destination) and
// every trailing flit follows, with the tail releasing its buffer and, once
// fully injected, the channel behind it.
func (n *Network) tryAdvance(w *worm) bool {
	if !n.canAdvance(w) {
		return false
	}
	c := &n.core
	if n.applyAdvance(w, &c.Em, &c.FlitsConsumed, &c.MisrouteHops) {
		n.enlist(w)
	}
	return true
}

// canAdvance is tryAdvance's read-only half: whether the worm moves this
// round. An arrived worm always drains a flit; a granted header moves iff
// its target buffer is free. The sharded step's movement rounds evaluate it
// for every worm at a barrier before any write (see shard.go), which is
// sound because no write of the subsequent apply stage can invalidate a
// positive answer: granted headers hold exclusive output channels, so two
// movers never target one buffer, and frees only enable.
func (n *Network) canAdvance(w *worm) bool {
	if w.inNetwork() == 0 {
		return false
	}
	if w.arrived {
		return true
	}
	if w.outDir == noDirection {
		return false
	}
	r := w.headRouter
	next, ok := n.core.Grid.Neighbor(r, w.outDir)
	if !ok {
		panic(fmt.Sprintf("network: allocated output %v at node %d has no channel", w.outDir, r))
	}
	return !n.occupied[n.bufID(next, int(w.outDir))]
}

// applyAdvance is tryAdvance's write half: one hop for a worm canAdvance
// approved. Every location it writes is exclusive to this worm — the
// target buffer (via its output-channel grant), its own flits' buffers and
// channels — so the sharded step may apply a whole round of moves in
// parallel. The flit-consumed and misroute tallies and the probe events go
// through the caller's sinks: the core's own for the serial path, the
// domain's for the sharded one. It reports whether the header hopped into
// a new buffer; the caller then enlists it there (the serial step at once,
// a domain worker only under its own routers — see applyDomain).
func (n *Network) applyAdvance(w *worm, em *engine.Emitter, flits, mis *int64) (hopped bool) {
	c := &n.core
	last := len(w.path) - 1
	inNet := w.inNetwork()
	if hopped = !w.arrived; hopped {
		r := w.headRouter
		next, _ := c.Grid.Neighbor(r, w.outDir)
		nb := n.bufID(next, int(w.outDir))
		n.occupied[nb] = true
		if w.candsMis {
			// The hop came from a misroute set: a nonminimal detour,
			// charged against the packet's misroute budget.
			w.misroutes++
			*mis++
			w.candsMis = false
		}
		w.path = append(w.path, nb)
		w.pkt.Hops++
		w.headerArrival = c.Cycle
		w.inWrap = c.Grid.Wrap(r, w.outDir)
		w.inDir = w.outDir
		w.headRouter = next
		w.outDir = noDirection
		w.candsValid = false
	} else {
		// The front flit is consumed by the destination processor.
		w.delivered++
		*flits++
	}

	// Shift the tail: either a fresh flit enters the injection buffer or
	// the tail flit vacates its buffer and releases the channel it
	// finished crossing.
	tailIdx := last - (inNet - 1)
	if w.sent < w.pkt.Length {
		// The next flit follows into the injection buffer (tailIdx is
		// necessarily 0 here).
		w.sent++
	} else {
		n.occupied[w.path[tailIdx]] = false
		if tailIdx+1 < len(w.path) {
			from := n.bufRouter(w.path[tailIdx])
			dir := n.bufPort(w.path[tailIdx+1])
			key := int(from)*n.dims2 + dir
			n.outOwner[key] = nil
			// The tail has crossed: all of the packet's flits have now
			// traversed this channel. Tallied at release so the counts
			// reflect completed traversals only.
			n.channelFlits[key] += int64(w.pkt.Length)
			em.FlitMove(c.Cycle, from, topology.Direction(dir), w.pkt.Length)
		}
	}
	w.movedAt = c.Cycle
	return hopped
}
