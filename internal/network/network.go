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
//
// A Network can be reused: Reset(cfg) returns it to exactly the state
// New(cfg) builds — New is new(Network) followed by Reset — keeping every
// table the topology sizes, so that a sweep runs each of its points on one
// network per topology and pays for the cycles it simulates, not for
// building the simulator (see docs/performance.md, "A point pays for its
// cycles").
package network

import (
	"fmt"
	"math/rand"
	"slices"

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
	// Probe receives simulation events (see metrics.Probe). nil disables
	// instrumentation at zero cost: emission is batched through the
	// engine core's emitter, whose no-probe paths return immediately and
	// keep the Step hot loop allocation-free (TestStepAllocs pins this).
	Probe metrics.Probe
	// DisableEventSkip turns off event-driven cycle skipping (see
	// SetInjectionHorizon): every cycle is then stepped individually even
	// when the caller has promised an injection horizon. It is an
	// execution strategy, not a model change — results are bit-identical
	// either way. Off by default (skipping available).
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
	// feeder maps a buffer to the outOwner key of the one channel that
	// feeds it, -1 for injection buffers (the source feeds those): whoever
	// vacates a buffer finds there the worm, or the source, waiting for it.
	feeder []int32

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

	// active lists the worms in the network in injection order, threaded
	// through the worms themselves so that a retirement or an abort unlinks
	// in O(1); nothing walks it per cycle.
	active wormList
	// delivered collects the packets retired since the last TakeDelivered;
	// taken is the slice that call handed back, whose storage the call
	// after it reuses.
	delivered, taken []*Packet
	// wait holds the headers waiting for an output, filed by router in
	// input-policy order (see engine.WaitTable); phase 2 walks its awake
	// routers instead of collecting and sorting requests.
	wait *engine.WaitTable[*worm]

	routingDelay int64

	// draining holds the worms whose header reached its destination and
	// whose tail is moving: each delivers a flit, vacates a buffer and
	// releases a channel per cycle. sleepers holds the arrived worms whose
	// source is still sending, each until the cycle it sends its last flit
	// (worm.wakeAt): one flit in, one flit out, and nothing for anybody else
	// to see, so Step delivers their flits by counting them (see drain).
	// stalls holds recovery's stall timeouts, one per worm that has not
	// arrived (see recoveryPhase).
	draining []*worm
	sleepers engine.Timers[*worm]
	stalls   engine.Timers[stall]
	// ready holds the worms that can advance in the coming movement round:
	// granted an output whose target buffer is free. woken holds the worms
	// whose target buffer a move of the round under way vacated — the next
	// round's ready worms — and moved records that the cycle's movement
	// moved anything.
	ready []*worm
	woken []*worm
	moved bool

	// victims and vacated are recovery's per-cycle scratch: the timed-out
	// worms and the buffers their aborts freed. finished collects the worms
	// whose last flit was consumed this cycle, for retirePhase; free is the
	// stock of recycled worms (see newWorm). candScratch is reused by
	// reachable()'s candidate queries.
	victims     []*worm
	vacated     []int32
	finished    []*worm
	free        []*worm
	candScratch []topology.Direction
	// channelFlits counts the flits each output channel has carried,
	// for load analysis (router*2n+dir).
	channelFlits []int64

	// freeBase and freeFn keep the Step hot loop allocation-free: freeFn
	// is allocated once with freeBase rebound per request instead of
	// closing over a fresh base per header.
	freeBase int
	freeFn   func(topology.Direction) bool

	// spare holds the arbitration RNG and the masking wrapper the network
	// built, in use or not (rng and masked are nil while the configuration
	// has no use for them), so that Reset reuses them.
	spare struct {
		rng    *rand.Rand
		masked *routing.FaultAware
	}
}

// stall is one stall-timeout entry: the worm and the ID of the packet it
// carried when the timer was armed. Worms are reused, so an entry that
// outlived its worm's packet is told by the ID.
type stall struct {
	w  *worm
	id int64
}

// New builds a network simulator for the given configuration.
func New(cfg Config) *Network {
	n := new(Network)
	n.Reset(cfg)
	return n
}

// Reset makes the network the one New(cfg) builds, in place: New is
// new(Network) followed by Reset, so there is one initialisation path. Any
// configuration is accepted. Every table whose size the topology fixes —
// buffers, channel owners and loads, the wait table, the timers, the worm
// free list and the scratch lists — is cleared and kept; the Grid and the
// buffer decoding tables (feeder, routerOf, portOf) are rebuilt only when
// cfg.Routing.Topology() is a different value from the network's current
// one, which re-sizes the rest. The fault state, health view and masking
// wrapper are reset in place, and the arbitration RNG re-seeded (see
// engine.Core.Reset). The worms still in the network go to the free list.
//
// Packets are not recycled: those the previous run handed out (Enqueue,
// TakeDelivered) stay valid and untouched, and a slice TakeDelivered
// returned stays valid until the next TakeDelivered. Reset on a topology
// the network already has allocates nothing (TestResetZeroAllocs).
func (n *Network) Reset(cfg Config) {
	if cfg.Routing == nil {
		panic("network: Config.Routing is required")
	}
	topo := cfg.Routing.Topology()
	for w := n.active.head; w != nil; {
		next := w.next
		n.recycle(w)
		w = next
	}
	n.active = wormList{}

	grid := n.core.Grid
	n.core.Reset(engine.Config{
		Topo:             topo,
		WatchdogCycles:   cfg.WatchdogCycles,
		Faults:           cfg.Faults,
		FaultPlan:        cfg.FaultPlan,
		Recovery:         cfg.Recovery,
		FaultRouting:     cfg.FaultRouting,
		Probe:            cfg.Probe,
		DisableEventSkip: cfg.DisableEventSkip,
	})
	n.core.Bind()
	if n.core.Grid != grid {
		n.resize(topo)
	} else {
		n.wait.Reset()
	}
	if n.freeFn == nil {
		n.bindHooks()
	}
	n.topo, n.alg = topo, cfg.Routing
	n.output, n.input = cfg.Output, cfg.Input
	if n.output == nil {
		n.output = LowestDimension{}
	}
	if n.input == nil {
		n.input = LocalFCFS{}
	}
	n.appender, _ = cfg.Routing.(routing.CandidateAppender)
	_, n.fastOutput = n.output.(LowestDimension)
	// Only a policy arbitrate consults can draw from the RNG: LowestDimension
	// is inlined there (fastOutput) and never reads it.
	n.rng = nil
	if !n.fastOutput {
		if n.spare.rng == nil {
			n.spare.rng = rand.New(rand.NewSource(cfg.Seed))
		} else {
			n.spare.rng.Seed(cfg.Seed)
		}
		n.rng = n.spare.rng
	}
	// Alias the core's fault bitmap: output allocation reads it with one
	// load, and fault transitions are visible immediately.
	n.faulted = n.core.Faulted
	n.masked = nil
	if n.core.Health != nil {
		if n.spare.masked == nil {
			n.spare.masked = routing.NewFaultAware(cfg.Routing, n.core.Health, n.core.FaultPol)
		} else {
			n.spare.masked.Reset(cfg.Routing, n.core.Health, n.core.FaultPol)
		}
		n.masked = n.spare.masked
	}
	n.routingDelay = cfg.RoutingDelay

	buffers, channels := topo.Nodes()*n.ports, topo.Nodes()*n.dims2
	n.occupied = slices.Grow(n.occupied[:0], buffers)[:buffers]
	clear(n.occupied)
	n.outOwner = slices.Grow(n.outOwner[:0], channels)[:channels]
	clear(n.outOwner)
	n.channelFlits = slices.Grow(n.channelFlits[:0], channels)[:channels]
	clear(n.channelFlits)
	clear(n.delivered)
	n.delivered, n.taken = n.delivered[:0], n.taken[:0]
	n.sleepers.Reset()
	n.stalls.Reset()
	for _, l := range [...]*[]*worm{&n.draining, &n.ready, &n.woken, &n.victims, &n.finished} {
		clear(*l)
		*l = (*l)[:0]
	}
	n.moved = false
	n.vacated, n.candScratch, n.freeBase = n.vacated[:0], n.candScratch[:0], 0
}

// resize sizes the network for a topology it has not held: the buffer
// decoding tables, the feeder map and the wait table.
func (n *Network) resize(topo topology.Topology) {
	n.dims = topo.Dims()
	n.dims2 = 2 * n.dims
	n.ports = n.dims2 + 1
	buffers := topo.Nodes() * n.ports
	n.routerOf = make([]int32, buffers)
	n.portOf = make([]int16, buffers)
	n.feeder = make([]int32, buffers)
	for b := range n.routerOf {
		n.routerOf[b] = int32(b / n.ports)
		n.portOf[b] = int16(b % n.ports)
		n.feeder[b] = -1
	}
	for key := 0; key < topo.Nodes()*n.dims2; key++ {
		from, d := topology.NodeID(key/n.dims2), key%n.dims2
		if next, ok := n.core.Grid.Neighbor(from, topology.Direction(d)); ok {
			b := n.bufID(next, d)
			if n.feeder[b] >= 0 {
				panic(fmt.Sprintf("network: two channels feed buffer %d of node %d", d, next))
			}
			n.feeder[b] = int32(key)
		}
	}
	n.wait = engine.NewWaitTable[*worm](topo.Nodes())
}

// bindHooks wires the core's hooks and the output-freedom test to the
// network, once: they close over n, not over anything Reset replaces.
func (n *Network) bindHooks() {
	n.core.InjFree = func(node topology.NodeID) bool {
		return !n.occupied[int(node)*n.ports+n.dims2]
	}
	n.core.InjPlace = n.placeWorm
	n.core.Reachable = n.reachable
	n.core.OnEpochChange = func() {
		// The fault set changed: a header refused because of a broken
		// channel may now be granted, so every router offers again; and
		// masked candidate sets computed from the old set are stale, so
		// the waiting headers (those not yet granted an output channel)
		// re-decide.
		if n.masked != nil {
			for it := n.wait.Walk(); it.Next(); {
				it.Waiter().candsValid = false
			}
		}
		n.wait.WakeAll()
	}
	n.freeFn = func(d topology.Direction) bool {
		return n.outOwner[n.freeBase+int(d)] == nil && !n.faulted[n.freeBase+int(d)]
	}
}

// Close releases nothing: a Network holds no goroutine or file. It is kept
// so that callers written against an interface with Close still compile.
func (n *Network) Close() {}

// newWorm puts the packet's header into the node's free injection buffer,
// where it starts waiting for an output. The worm comes off the free list
// when that has one: retirePhase and abort put worms there once
// nothing in the network refers to them any more — not outOwner, the wait
// table, a draining or ready list, the sleepers' timer or the active list —
// and every field but the inline buffers is set afresh here. A stall timer
// may still name the worm: its entry carries the packet's ID and is dropped
// when it no longer matches. Under recovery the new worm's own stall timeout
// is armed.
func (n *Network) newWorm(node topology.NodeID, p *Packet) *worm {
	var w *worm
	if k := len(n.free) - 1; k >= 0 {
		w, n.free[k], n.free = n.free[k], nil, n.free[:k]
	} else {
		w = new(worm)
	}
	// Field by field rather than *w = worm{...}, which would zero the
	// inline candBuf and pathBuf arrays too.
	w.pkt = p
	w.sent, w.delivered = 1, 0
	w.outDir = noDirection
	w.arrived = false
	w.wakeAt = 0
	w.headerArrival = n.core.Cycle
	w.target = 0
	w.headRouter, w.inDir, w.inWrap = node, topology.Invalid, false
	w.cands, w.candsValid, w.candsMis, w.misroutes = nil, false, false, 0
	w.wait = engine.WaitLink[*worm]{Owner: w}
	w.next, w.prev = nil, nil
	path := w.path
	inj := n.bufID(node, n.dims2)
	if cap(path) <= len(w.pathBuf) {
		// Only a heap buffer that a long route grew is worth inheriting.
		path = w.pathBuf[:]
	}
	w.path = append(path[:0], inj)
	n.occupied[inj] = true
	n.enlist(w)
	if rec := &n.core.Recovery; rec.Enabled {
		n.stalls.Push(w.headerArrival+rec.StallCycles, stall{w: w, id: p.ID})
	}
	return w
}

// recycle puts a worm nothing refers to any more on the free list.
func (n *Network) recycle(w *worm) {
	w.pkt, w.cands = nil, nil
	n.free = append(n.free, w)
}

// placeWorm is the core's injection hook.
func (n *Network) placeWorm(node topology.NodeID, p *Packet) {
	n.active.pushBack(n.newWorm(node, p))
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
func (n *Network) InFlight() int { return n.active.len + n.core.Backlog() }

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
	return n.masked.MaskedDecisions()
}

// MisrouteHops counts header hops taken from a misroute fallback set —
// the nonminimal detours of fault-aware routing; 0 unless enabled.
func (n *Network) MisrouteHops() int64 { return n.core.MisrouteHops }

// FaultEvents counts channel-break events applied so far, including static
// faults. ActiveFaults is the number of channels broken right now.
func (n *Network) FaultEvents() int64 { return n.core.FaultEvents() }

// ActiveFaults reports how many channels are currently broken.
func (n *Network) ActiveFaults() int { return n.core.ActiveFaults() }

// TakeDelivered returns the packets completed since the previous call, in
// the order they were retired, or nil when there are none. The slice is
// valid until the next call, which reuses its storage; the packets
// themselves stay valid for good.
func (n *Network) TakeDelivered() []*Packet {
	out := n.delivered
	if len(out) == 0 {
		return nil
	}
	clear(n.taken)
	n.delivered, n.taken = n.taken[:0], out
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
// Nothing blocked is looked at. A header that was refused sleeps at its
// router until an output there is released; a worm granted an output whose
// target buffer is occupied sleeps until that buffer is vacated; a source
// whose injection buffer is occupied sleeps likewise; and every release
// delivers the one wake it implies (see wake and docs/performance.md). Time
// is a wake source too: a worm whose header has arrived while its source is
// still sending sleeps on a timer until its tail starts to move, and a stall
// timeout sleeps on one until it is due (see drain and recoveryPhase). A
// step costs the grants, hops, releases and aborts it makes, not the worms
// or the flits in the network.
func (n *Network) Step() error {
	c := &n.core

	// Phase 0: fault transitions and deadlock recovery.
	c.FaultPhase()
	if c.Recovery.Enabled {
		n.recoveryPhase()
	}

	// Phase 1: injection, over the core's worklist of nodes that have
	// something to send and may have room to send it. Due retries take
	// priority over fresh messages; packets whose destination the fault set
	// has cut off entirely are dropped without entering the network.
	progress := c.InjectPhase()
	if n.active.len == 0 {
		// An empty network: nobody waits, drains or moves.
		return n.finishStep(progress)
	}

	// Phase 2: routing and output allocation for the waiting headers at the
	// routers where something changed, router by router in input-policy
	// order, straight off the wait table. A granted worm whose target
	// buffer is free is ready to move; a header at its destination starts
	// draining.
	n.arbitrate()

	// Phase 3: movement. Every arrived worm delivers a flit — the sleepers
	// by being counted, the draining ones by shifting their tail — and every
	// ready worm advances one hop; each buffer a tail vacates wakes the worm
	// stalled on it, which moves in the next round of the same cycle, until
	// a round wakes nobody.
	n.drain()
	for len(n.woken) > 0 {
		n.ready, n.woken = n.woken, n.ready
		n.move()
	}
	progress = progress || n.moved
	n.moved = false

	// Phase 4: retire completed worms, then close the cycle.
	n.retirePhase()
	return n.finishStep(progress)
}

// arbitrate is phase 2: every header the wait table has due — new at its
// router, or wanting an output released there since its last offer, or
// waiting through a change of the fault set — is visited in ascending
// router order and, within a router, in input-policy order, marked arrived
// if it sits at its destination, and otherwise offered its candidate
// outputs. A header leaves the table when it is granted an output or
// arrives; a blocked one stays where it is, and sleeps until one of the
// outputs its candidates name is released or the fault set changes: nothing
// else can turn the refusal into a grant, because the candidates are fixed
// while the header waits and a refusal consumes nothing (an OutputPolicy
// draws from the RNG only to pick among free candidates). With a probe
// attached every waiter is visited instead: a blocked header is a Blocked
// event every cycle it waits.
func (n *Network) arbitrate() {
	c := &n.core
	em := &c.Em
	it := n.wait.WalkAwake()
	if em.Enabled() {
		it = n.wait.Walk()
	}
	for it.Next() {
		w := it.Waiter()
		if n.routingDelay > 0 && c.Cycle-w.headerArrival < n.routingDelay {
			// The routing decision is still in the router pipeline
			// (Section 7's node-delay cost of adaptive route selection).
			it.Keep()
			continue
		}
		r := w.headRouter
		if r == w.pkt.Dst {
			// Ejection channels are always available; the message
			// starts draining into the local processor. While the source
			// still has q flits to send, each cycle puts one flit in at the
			// tail and takes one out at the head, and nothing else changes:
			// the worm sleeps through those q cycles (see drain).
			w.arrived = true
			it.Delist()
			if q := w.pkt.Length - w.sent; q > 0 {
				w.wakeAt = c.Cycle + int64(q)
				n.sleepers.Push(w.wakeAt, w)
			} else {
				n.draining = append(n.draining, w)
			}
			continue
		}
		if !w.candsValid {
			// The permitted outputs depend only on (router, dst, arrival
			// direction), all fixed while the header waits in this buffer,
			// so the candidate list is computed once per hop rather than
			// once per cycle.
			if n.masked != nil {
				w.cands, w.candsMis = n.masked.AppendFaultCandidates(w.candBuf[:0], r, w.pkt.Dst, w.inDir, w.inWrap, w.misroutes)
			} else if n.appender != nil {
				w.cands = n.appender.AppendCandidates(w.candBuf[:0], r, w.pkt.Dst, w.inDir, w.inWrap)
			} else {
				w.cands = n.alg.Candidates(r, w.pkt.Dst, w.inDir, w.inWrap)
			}
			w.candsValid = true
			var wants uint64
			for _, dd := range w.cands {
				wants |= engine.OutputBit(int(dd))
			}
			w.wait.SetWants(wants)
		}
		base := int(r) * n.dims2
		if n.fastOutput {
			// LowestDimension is "first free candidate": inline it and
			// skip the policy's closure indirection.
			for _, dd := range w.cands {
				if k := base + int(dd); n.outOwner[k] == nil && !n.faulted[k] {
					n.grant(w, dd)
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
			n.grant(w, dd)
			it.Delist()
		} else {
			em.Blocked(c.Cycle, r)
		}
	}
}

// grant allocates the output channel to the waiting header. The worm is
// ready to move if the buffer at the channel's far end is free — it stays
// free until the worm takes it, the grant being exclusive — and otherwise
// sleeps until the flit there leaves (see wake).
func (n *Network) grant(w *worm, dd topology.Direction) {
	r := w.headRouter
	next, ok := n.core.Grid.Neighbor(r, dd)
	if !ok {
		panic(fmt.Sprintf("network: allocated output %v at node %d has no channel", dd, r))
	}
	n.outOwner[int(r)*n.dims2+int(dd)] = w
	w.outDir = dd
	w.target = n.bufID(next, int(dd))
	if !n.occupied[w.target] {
		n.ready = append(n.ready, w)
	}
}

// recoveryPhase aborts any worm whose header has been stuck past the stall
// threshold (the timeout criterion of software-based deadlock recovery: a
// genuinely deadlocked worm never moves again, and a worm starved that long
// is treated the same). It looks at the stall timers that are due, not at
// the worms: every worm that has not arrived has exactly one entry, armed by
// newWorm for the cycle its header would have stood still for StallCycles.
// A due entry whose worm has arrived since, or has been retired and recycled
// for another packet, is dropped; one whose header has moved is re-armed for
// the cycle the new position times out; the rest are the victims, on exactly
// the cycle the scan of every active worm this replaces found them. They are
// aborted in injection order, the order of that scan: abort order is the
// order of the retry lists and of the Abort, Retry and Drop events.
//
// The buffers the aborts vacate deliver their wakes once every victim is
// gone, so that no wake finds a victim: a woken worm is ready for this
// cycle's movement, a woken source for its injection.
func (n *Network) recoveryPhase() {
	c := &n.core
	v := n.victims[:0]
	for {
		e, ok := n.stalls.PopDue(c.Cycle)
		if !ok {
			break
		}
		w := e.w
		if w.pkt == nil || w.pkt.ID != e.id || w.arrived {
			continue
		}
		if due := w.headerArrival + c.Recovery.StallCycles; due > c.Cycle {
			n.stalls.Push(due, e)
			continue
		}
		// File the victim in injection order (there are rarely two).
		i := len(v)
		v = append(v, w)
		for ; i > 0 && injectedBefore(w.pkt, v[i-1].pkt); i-- {
			v[i] = v[i-1]
		}
		v[i] = w
	}
	n.victims = v
	if len(n.victims) == 0 {
		return
	}
	for _, w := range n.victims {
		n.abort(w)
	}
	clear(n.victims)
	for _, b := range n.vacated {
		n.wake(b)
	}
	n.vacated = n.vacated[:0]
	n.ready, n.woken = n.woken, n.ready
}

// retirePhase takes the worms whose last flit was consumed this cycle off
// the active list and records their delivery — in the active list's order,
// the order worms were injected in, whatever order movement finished them
// in: TakeDelivered's order feeds the callers' floating-point latency sums.
// Injection order is (injection cycle, source node), a source injecting at
// most one worm per cycle. On a cycle that finished nobody it does nothing.
func (n *Network) retirePhase() {
	c := &n.core
	f := n.finished
	for i := 1; i < len(f); i++ {
		w := f[i]
		j := i - 1
		for ; j >= 0 && injectedBefore(w.pkt, f[j].pkt); j-- {
			f[j+1] = f[j]
		}
		f[j+1] = w
	}
	for _, w := range f {
		p := w.pkt
		p.Arrived = c.Cycle
		n.delivered = append(n.delivered, p)
		c.PacketsDone++
		c.Em.Deliver(c.Cycle, p.Src, p.Dst, p.Length, p.Hops,
			p.Injected-p.Created, p.Arrived-p.Injected)
		n.active.remove(w)
		n.recycle(w)
	}
	clear(f)
	n.finished = f[:0]
}

func injectedBefore(p, q *Packet) bool {
	return p.Injected < q.Injected || p.Injected == q.Injected && p.Src < q.Src
}

// finishStep closes the cycle through the core and builds the deadlock
// error if the watchdog fired.
func (n *Network) finishStep(progress bool) error {
	c := &n.core
	if c.EndStep(progress, n.active.len) {
		stuck := make([]*Packet, 0, 4)
		for w := n.active.head; w != nil && len(stuck) < 4; w = w.next {
			stuck = append(stuck, w.pkt)
		}
		return c.Deadlock(n.active.len, stuck)
	}
	return nil
}

// abort yanks a blocked worm out of the network: every buffer its flits
// occupy is freed and every channel it still holds (including a pending
// output allocation) is released; the shared core then requeues the packet
// at its source with backoff or drops it. Only never-arrived worms are
// aborted, and an arrived worm consumes a flit each cycle (asleep on the
// timer or not), so a victim has delivered no flits — aborting loses nothing
// already consumed.
// The freed buffers go on the vacated list, and recoveryPhase delivers
// their wakes.
func (n *Network) abort(w *worm) {
	last := len(w.path) - 1
	inNet := w.inNetwork()
	tailIdx := last - (inNet - 1)
	for i := tailIdx; i <= last; i++ {
		n.occupied[w.path[i]] = false
		n.vacated = append(n.vacated, w.path[i])
	}
	for j := tailIdx + 1; j <= last; j++ {
		from := n.routerOf[w.path[j-1]]
		dir := n.bufPort(w.path[j])
		n.outOwner[int(from)*n.dims2+dir] = nil
		n.wait.Release(from, dir)
	}
	if w.outDir != noDirection {
		n.outOwner[int(w.headRouter)*n.dims2+int(w.outDir)] = nil
		n.wait.Release(int32(w.headRouter), int(w.outDir))
	}
	n.wait.Delist(&w.wait)
	n.active.remove(w)
	p := w.pkt
	n.recycle(w)
	n.core.FinishAbort(p)
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
			n.candScratch, _ = n.masked.AppendFaultCandidates(n.candScratch[:0], node, dst, in, inWrap, 0)
			cands = n.candScratch
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

// wake delivers the one wake a vacated buffer implies. An injection buffer
// wakes its source. Any other buffer is fed by one channel, and if that
// channel is held, its holder is the worm granted it and stalled on this
// buffer — a worm's own channels feed buffers its own flits sit in — which
// is now ready to move: nothing else can take the buffer first.
func (n *Network) wake(b int32) {
	if k := n.feeder[b]; k < 0 {
		n.core.WakeSource(topology.NodeID(n.routerOf[b]))
	} else if o := n.outOwner[k]; o != nil {
		n.woken = append(n.woken, o)
	}
}

// drain is the first movement round of a cycle: every arrived worm delivers
// a flit, then the ready worms advance (move).
//
// The sleepers deliver theirs without being touched: their number is added
// to FlitsConsumed, which keeps it exact at every cycle boundary and shows
// the watchdog the progress. A sleeper that arbitrate put on the timer in
// cycle a with q flits still to be sent is counted in cycles a to a+q-1 and
// comes off the timer here in cycle a+q, credited with those q flits in one
// addition and fully injected; from then on it is a draining worm, whose
// every advance shifts its tail. In what order the woken worms join the
// draining list changes nothing that outlives the cycle: each advance writes
// only its own worm's buffers and channels, the wakes reach the same
// fixpoint, headers are filed in the wait table by key, and the finished are
// retired in injection order. Sleeping emits no probe event either —
// FlitMove fires at a channel release, Deliver at retirement — so probe
// streams are untouched. A worm that delivered its last flit leaves the
// draining list.
func (n *Network) drain() {
	c := &n.core
	for {
		w, ok := n.sleepers.PopDue(c.Cycle)
		if !ok {
			break
		}
		w.delivered += w.pkt.Length - w.sent
		w.sent = w.pkt.Length
		w.wakeAt = 0
		n.draining = append(n.draining, w)
	}
	if asleep := n.sleepers.Len(); asleep > 0 {
		c.FlitsConsumed += int64(asleep)
		n.moved = true
	}
	if len(n.draining) > 0 {
		keep := n.draining[:0]
		for _, w := range n.draining {
			n.advance(w)
			if w.delivered < w.pkt.Length {
				keep = append(keep, w)
			}
		}
		clear(n.draining[len(keep):])
		n.draining = keep
		n.moved = true
	}
	n.move()
}

// move is one movement round: each ready worm advances one hop. Every one of
// them can — its target buffer was free when it was listed and only the worm
// itself can fill it — and the worms it wakes go to the next round. A
// header that hopped starts waiting at its new router (nothing reads the
// wait table during movement, and entries are filed in order on insertion,
// so when and in what order they land is immaterial).
func (n *Network) move() {
	if len(n.ready) == 0 {
		return
	}
	for _, w := range n.ready {
		if n.advance(w) {
			n.enlist(w)
		}
	}
	clear(n.ready)
	n.ready = n.ready[:0]
	n.moved = true
}

// advance moves a draining or ready worm forward one hop: the header moves
// into its target buffer (or a flit is consumed at the destination) and
// every trailing flit follows, with the tail releasing its buffer and, once
// fully injected, the channel behind it. A draining worm is fully injected
// (until then it sleeps on the timer), so every call is an event somebody
// else can see: a header hop or a release. Every location it writes is
// exclusive to this worm — the target buffer (via its output-channel
// grant), its own flits' buffers and channels — so no move can invalidate
// another: two movers never target one buffer, and frees only enable.
// Movement therefore reaches the same state in whatever order, and over
// however many rounds, the ready worms are taken: the least fixpoint of
// "advance every worm that can". It reports whether the header hopped into
// a new buffer; the caller then enlists it there.
func (n *Network) advance(w *worm) (hopped bool) {
	c := &n.core
	last := len(w.path) - 1
	inNet := w.inNetwork()
	if hopped = !w.arrived; hopped {
		r := w.headRouter
		if n.occupied[w.target] {
			panic(fmt.Sprintf("network: %v listed to move into buffer %d, which is occupied", w.pkt, w.target))
		}
		n.occupied[w.target] = true
		if w.candsMis {
			// The hop came from a misroute set: a nonminimal detour,
			// charged against the packet's misroute budget.
			w.misroutes++
			c.MisrouteHops++
			w.candsMis = false
		}
		w.path = append(w.path, w.target)
		w.pkt.Hops++
		w.headerArrival = c.Cycle
		w.inWrap = c.Grid.Wrap(r, w.outDir)
		w.inDir = w.outDir
		w.headRouter = topology.NodeID(n.routerOf[w.target])
		w.outDir = noDirection
		w.candsValid = false
	} else {
		// The front flit is consumed by the destination processor.
		w.delivered++
		c.FlitsConsumed++
		if w.delivered == w.pkt.Length {
			n.finished = append(n.finished, w)
		}
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
		b := w.path[tailIdx]
		n.occupied[b] = false
		n.wake(b)
		if tailIdx+1 < len(w.path) {
			from := n.routerOf[b]
			dir := n.bufPort(w.path[tailIdx+1])
			key := int(from)*n.dims2 + dir
			n.outOwner[key] = nil
			n.wait.Release(from, dir)
			// The tail has crossed: all of the packet's flits have now
			// traversed this channel. Tallied at release so the counts
			// reflect completed traversals only.
			n.channelFlits[key] += int64(w.pkt.Length)
			c.Em.FlitMove(c.Cycle, topology.NodeID(from), topology.Direction(dir), w.pkt.Length)
		}
	}
	return hopped
}
