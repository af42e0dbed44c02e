// Package vcnet is a flit-level wormhole simulator for networks with
// virtual channels. Unlike internal/network — where a physical channel
// belongs to one worm at a time, so a worm always advances as a unit —
// virtual channels share a physical channel's bandwidth (one flit per
// cycle per physical link), worms interleave flit by flit, and bubbles
// form naturally. Flits are therefore simulated individually.
//
// The router model otherwise matches Section 6: one single-flit buffer per
// input virtual channel, unbounded source queues, immediate consumption at
// the destination, and a deadlock watchdog. The engine-independent
// machinery (queues, injection worklist, faults, retries, watchdog) is the
// shared internal/engine core, the same one internal/network drives; the
// differential harness in internal/engine exploits the shared skeleton to
// compare the two simulators packet for packet.
package vcnet

import (
	"fmt"

	"turnmodel/internal/engine"
	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/network"
	"turnmodel/internal/topology"
	"turnmodel/internal/vc"
)

// Config configures a Network.
type Config struct {
	// Routing is the virtual-channel routing algorithm.
	Routing vc.Algorithm
	// WatchdogCycles is how long the network may go without progress
	// while packets are in flight before Step reports a deadlock.
	// 0 selects the default (10000); negative disables.
	WatchdogCycles int64
	// Faults lists broken unidirectional physical channels: every
	// virtual channel multiplexed over a faulted link is unallocatable,
	// exactly as in internal/network. Shorthand for FaultPlan.Static.
	Faults []topology.Channel
	// FaultPlan is the full fault workload (see fault.Plan); validation
	// is shared with internal/network through the fault package.
	FaultPlan fault.Plan
	// Recovery switches the watchdog from fail-stop to deadlock
	// recovery, mirroring internal/network: stuck worms are aborted,
	// drained and source-retried with capped exponential backoff; with
	// Recovery.Enabled, Step never returns DeadlockError.
	Recovery fault.Recovery
	// FaultRouting enables in-network fault masking, mirroring
	// internal/network: routers steer headers around physical channels
	// they know to be broken (see fault.RoutingPolicy and
	// vc.FaultAware). Ignored when the fault plan is empty; the
	// zero value leaves routing fault-oblivious.
	FaultRouting fault.RoutingPolicy
	// Probe receives simulation events (see metrics.Probe); nil disables
	// instrumentation. Unlike internal/network, FlitMove is emitted per
	// flit per physical-channel crossing, so utilization derived from it
	// is exact.
	Probe metrics.Probe
	// UncappedEjection lifts the one-flit-per-cycle limit on each node's
	// ejection channel, matching internal/network's model of Section 6
	// ("arriving messages are consumed immediately", with no bandwidth
	// cap at the destination). Off by default: the virtual-channel
	// simulations archived in docs/ treat ejection as one more physical
	// channel. The differential harness in internal/engine turns it on,
	// making vcnet-with-1-VC observation-equivalent to network.
	UncappedEjection bool
	// Shards partitions the network into contiguous spatial domains for
	// intra-simulation parallelism, mirroring network.Config.Shards, with
	// bit-identical results at every shard count. In this engine only
	// injection and routing/allocation fan out: per-flit movement
	// arbitrates per-cycle physical-channel bandwidth across worms
	// (physUsed/ejectUse), which is inherently order-dependent, so it
	// stays serial (see docs/performance.md). Values <= 1 step serially.
	Shards int
	// DisableEventSkip turns off event-driven cycle skipping (see
	// SetInjectionHorizon), mirroring network.Config.DisableEventSkip:
	// every cycle is stepped individually even when the caller has
	// promised an injection horizon. Results are bit-identical either
	// way. Off by default (skipping available).
	DisableEventSkip bool
}

// Packet re-exports the packet bookkeeping of the base simulator (both
// simulators alias the shared engine type).
type Packet = network.Packet

// worm tracks a packet's flits individually. path is the chain of input
// buffers the header has entered; pos[k] is the index into path where flit
// k currently sits, -1 before injection, len(path) after consumption.
type worm struct {
	pkt  *Packet
	path []int32
	pos  []int
	// outVC is the allocated output at the header's current router, or
	// -1 while the header waits.
	out    vc.Out
	routed bool
	// arrived is set once the header has entered the destination router.
	arrived       bool
	headerArrival int64
	sent, done    int
	// movedAt[k] is the cycle flit k last moved; a flit moves at most
	// once per cycle.
	movedAt []int64
	// headRouter, inDir and inVC cache the header's position state — the
	// router holding its buffer and the virtual channel it arrived on —
	// so the step loop never decodes buffer ids.
	headRouter topology.NodeID
	inDir      topology.Direction
	inVC       int
	// cands caches the algorithm's candidate outputs for the header's
	// current buffer; invalidated on every hop (see candsValid). It is
	// backed by candBuf when the algorithm supports appending.
	// candsMis marks cands as a misroute fallback set (fault-aware
	// routing): the next hop is a nonminimal detour and counts against
	// the packet's misroute budget, tracked in misroutes per attempt.
	cands      []vc.Out
	candsValid bool
	candsMis   bool
	misroutes  int

	// wait is the header's link in the wait table while it waits for an
	// output at headRouter (see engine.WaitTable).
	wait engine.WaitLink[*worm]

	candBuf [8]vc.Out
	pathBuf [16]int32
}

func (w *worm) headBuf() int32 { return w.path[len(w.path)-1] }

// Network is the virtual-channel simulator state.
type Network struct {
	core engine.Core

	topo  topology.Topology
	alg   vc.Algorithm
	maxVC int
	dims2 int
	ports int // per router: 2n*maxVC virtual-channel buffers + 1 injection

	occupied []bool  // buffer id
	owner    []*worm // output virtual channel -> holder
	faulted  []bool  // physical channel broken (node*2n+dir), aliases core

	// physUsed and ejectUse enforce one flit per physical (respectively
	// ejection) channel per cycle; stamping with the cycle number makes
	// "clear at start of phase" free. uncappedEject disables the
	// ejection limit (Config.UncappedEjection).
	physUsed      []int64 // node*2n+dir -> last cycle the channel carried a flit
	ejectUse      []int64 // node -> last cycle the ejection channel was used
	uncappedEject bool

	// routerOf, portDir and portVC decode buffer ids without division;
	// injection buffers decode to (Invalid, 0).
	routerOf []int32
	portDir  []int16
	portVC   []int16

	// masked implements fault-aware routing; nil unless enabled with a
	// non-empty fault plan. appender is the algorithm's optional
	// allocation-free candidate path.
	masked   *vc.FaultAware
	appender vc.CandidateAppender

	active    []*worm
	delivered []*Packet
	// wait holds the headers waiting for an output virtual channel, filed
	// by router in local-FCFS order (header arrival cycle, then packet ID;
	// see engine.WaitTable); phase 2 walks its awake routers instead of
	// collecting and sorting requests.
	wait *engine.WaitTable[*worm]

	victims []*worm
	// dirScratch and candScratch are reused by the appender fast path and
	// reachable()'s candidate queries.
	dirScratch  []topology.Direction
	candScratch []vc.Out

	// dsc holds one vcDomain per spatial domain — per part of the wait
	// table; a single one unless Config.Shards split the network —
	// and arbitrateFn is the prebound phase-2 task. shards mirrors
	// core.ShardCount(): above 1 injection and phase 2 run on the worker
	// pool (see Step).
	shards      int
	dsc         []vcDomain
	arbitrateFn func(d int)
}

// vcDomain is one domain's share of what injection and phase 2 touch: the
// worms its pool worker injected this cycle, its stock of recycled worms
// (see newWorm), and — because the fault-masking wrapper's counters and the
// appender's direction scratch are not concurrent-safe — a per-domain
// wrapper over the shared read-only Health (nil unless masking is on) and a
// per-domain scratch slice. Padded against false sharing.
type vcDomain struct {
	injected   []*worm
	free       []*worm
	masked     *vc.FaultAware
	dirScratch []topology.Direction
	_          [64]byte
}

// New builds a virtual-channel network simulator.
func New(cfg Config) *Network {
	if cfg.Routing == nil {
		panic("vcnet: Config.Routing is required")
	}
	topo := cfg.Routing.Topology()
	n := &Network{
		topo:  topo,
		alg:   cfg.Routing,
		maxVC: vc.MaxVCs(cfg.Routing),
		dims2: 2 * topo.Dims(),
	}
	n.ports = n.dims2*n.maxVC + 1
	n.occupied = make([]bool, topo.Nodes()*n.ports)
	n.owner = make([]*worm, topo.Nodes()*n.dims2*n.maxVC)
	n.physUsed = make([]int64, topo.Nodes()*n.dims2)
	n.ejectUse = make([]int64, topo.Nodes())
	for i := range n.physUsed {
		n.physUsed[i] = -1
	}
	for i := range n.ejectUse {
		n.ejectUse[i] = -1
	}
	n.routerOf = make([]int32, topo.Nodes()*n.ports)
	n.portDir = make([]int16, topo.Nodes()*n.ports)
	n.portVC = make([]int16, topo.Nodes()*n.ports)
	for b := range n.routerOf {
		n.routerOf[b] = int32(b / n.ports)
		p := b % n.ports
		if p == n.ports-1 {
			n.portDir[b] = int16(topology.Invalid)
			n.portVC[b] = 0
		} else {
			n.portDir[b] = int16(p / n.maxVC)
			n.portVC[b] = int16(p % n.maxVC)
		}
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
		return !n.occupied[n.injID(node)]
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
			for d := 0; d < n.wait.Parts(); d++ {
				for it := n.wait.Walk(d); it.Next(); {
					it.Waiter().candsValid = false
				}
			}
		}
		n.wait.WakeAll()
	}
	n.faulted = n.core.Faulted
	if n.core.Health != nil {
		n.masked = vc.NewFaultAware(cfg.Routing, n.core.Health, n.core.FaultPol)
	}
	n.appender, _ = cfg.Routing.(vc.CandidateAppender)
	n.uncappedEject = cfg.UncappedEjection
	n.wait = engine.NewWaitTable[*worm](&n.core)
	n.shards = n.core.ShardCount()
	n.dsc = make([]vcDomain, n.shards)
	for d := range n.dsc {
		if n.core.Health != nil {
			n.dsc[d].masked = vc.NewFaultAware(cfg.Routing, n.core.Health, n.core.FaultPol)
		}
	}
	n.core.InjPlaceShard = n.placeWormShard
	n.arbitrateFn = n.arbitrate
	return n
}

// Close releases the sharded step's worker pool and leaves the network
// stepping serially over the same domains; idempotent and a no-op for serial networks (the pool
// also carries a finalizer, so a forgotten Close leaks nothing once the
// network is collected).
func (n *Network) Close() {
	n.core.Close()
	n.shards = 1
}

// newWorm puts the packet's header into the node's free injection buffer,
// where it starts waiting for an output. The worm — and with it the
// per-flit pos and movedAt slices, when they are long enough — comes off
// domain d's free list when that has one: retirePhase and abort put worms
// there once nothing in the network refers to them any more — not owner,
// the wait table or the active list — and every field is set afresh here.
func (n *Network) newWorm(d int, node topology.NodeID, p *Packet) *worm {
	dm := &n.dsc[d]
	var w *worm
	var pos []int
	var movedAt []int64
	if k := len(dm.free) - 1; k >= 0 {
		w, dm.free[k], dm.free = dm.free[k], nil, dm.free[:k]
		pos, movedAt = w.pos, w.movedAt
	} else {
		w = new(worm)
	}
	if cap(pos) < p.Length {
		pos, movedAt = make([]int, p.Length), make([]int64, p.Length)
	}
	inj := n.injID(node)
	*w = worm{
		pkt:           p,
		pos:           pos[:p.Length],
		movedAt:       movedAt[:p.Length],
		sent:          1,
		headerArrival: n.core.Cycle,
		headRouter:    node,
		inDir:         topology.Invalid,
	}
	w.wait.Owner = w
	w.path = append(w.pathBuf[:0], inj)
	for i := range w.pos {
		w.pos[i] = -1
		w.movedAt[i] = -1
	}
	w.pos[0] = 0
	n.occupied[inj] = true
	n.enlist(w)
	return w
}

// enlist records that the worm's header entered a buffer at its head
// router and waits there for an output, first come first served.
func (n *Network) enlist(w *worm) {
	n.wait.Enlist(&w.wait, int32(w.headRouter), w.headerArrival, w.pkt.ID)
}

// recycle puts a worm nothing refers to any more on a free list — the one
// of its source's domain, whose injections will draw on it.
func (n *Network) recycle(w *worm) {
	dm := &n.dsc[n.wait.PartOf(int32(w.pkt.Src))]
	w.pkt, w.cands = nil, nil
	dm.free = append(dm.free, w)
}

// placeWorm is the core's injection hook.
func (n *Network) placeWorm(node topology.NodeID, p *Packet) {
	n.active = append(n.active, n.newWorm(n.wait.PartOf(int32(node)), node, p))
}

// placeWormShard is the core's sharded injection hook: placeWorm with the
// worm taken off the domain's own free list and parked on its injected
// list; Step appends the lists to the active list in domain order,
// reproducing the serial ascending-node injection order. The injecting
// node — and so the worm's wait-table entry — belongs to this domain.
func (n *Network) placeWormShard(d int, node topology.NodeID, p *Packet) {
	n.dsc[d].injected = append(n.dsc[d].injected, n.newWorm(d, node, p))
}

// buffer ids: node*ports + dir*maxVC + vc for network buffers; the last
// port of each node is the injection buffer.
func (n *Network) bufID(node topology.NodeID, d topology.Direction, v int) int32 {
	return int32(int(node)*n.ports + int(d)*n.maxVC + v)
}

func (n *Network) injID(node topology.NodeID) int32 {
	return int32(int(node)*n.ports + n.ports - 1)
}

func (n *Network) bufRouter(buf int32) topology.NodeID {
	return topology.NodeID(n.routerOf[buf])
}

// bufPort decodes a buffer into (direction, vc); injection buffers return
// (Invalid, 0).
func (n *Network) bufPort(buf int32) (topology.Direction, int) {
	return topology.Direction(n.portDir[buf]), int(n.portVC[buf])
}

func (n *Network) ownerKey(node topology.NodeID, d topology.Direction, v int) int {
	return (int(node)*n.dims2+int(d))*n.maxVC + v
}

// Cycle is the current simulation time.
func (n *Network) Cycle() int64 { return n.core.Cycle }

// SetInjectionHorizon promises that no Enqueue will happen at a cycle
// strictly before the given one, enabling event-driven cycle skipping
// exactly as in network.Network.SetInjectionHorizon: once the network is
// idle, Step leaps the clock to the next cycle where anything can happen
// (injection horizon, retry expiry or fault transition), with results
// bit-identical to stepping every cycle. Passing a cycle at or before the
// current one withdraws the promise.
func (n *Network) SetInjectionHorizon(cycle int64) { n.core.SetInjectionHorizon(cycle) }

// CyclesSkipped reports how many cycles the event-driven clock leaped
// over instead of stepping — execution telemetry; results never depend on
// it.
func (n *Network) CyclesSkipped() int64 { return n.core.CyclesSkipped() }

// Topology returns the simulated topology.
func (n *Network) Topology() topology.Topology { return n.topo }

// Enqueue generates a message at the current cycle.
func (n *Network) Enqueue(src, dst topology.NodeID, length int) *Packet {
	if length < 1 {
		panic("vcnet: packet length must be at least 1 flit")
	}
	if src == dst {
		panic("vcnet: self-addressed packet")
	}
	return n.core.Enqueue(src, dst, length)
}

// QueueLen reports how many generated messages wait at the node's source
// queue (not yet injecting).
func (n *Network) QueueLen(node topology.NodeID) int { return n.core.QueueLen(node) }

// InFlight counts queued, in-network, and retry-pending packets:
// enqueued = delivered + dropped + in-flight at all times.
func (n *Network) InFlight() int { return len(n.active) + n.core.Backlog() }

// FlitsConsumed is the cumulative delivered flit count.
func (n *Network) FlitsConsumed() int64 { return n.core.FlitsConsumed }

// PacketsDelivered is the cumulative completed packet count.
func (n *Network) PacketsDelivered() int64 { return n.core.PacketsDone }

// PacketsAborted counts worm aborts by deadlock recovery.
func (n *Network) PacketsAborted() int64 { return n.core.PacketsAborted }

// PacketsRetried counts source retries of aborted packets.
func (n *Network) PacketsRetried() int64 { return n.core.PacketsRetried }

// PacketsDropped counts packets abandoned as unreachable or out of
// retries.
func (n *Network) PacketsDropped() int64 { return n.core.PacketsDropped }

// FaultEvents counts channel-break events applied so far, including static
// faults; ActiveFaults is the number of channels broken right now.
func (n *Network) FaultEvents() int64 { return n.core.FaultEvents() }

// ActiveFaults reports how many physical channels are currently broken.
func (n *Network) ActiveFaults() int { return n.core.ActiveFaults() }

// MaskedFaults counts routing decisions whose candidate set fault-aware
// routing narrowed (or replaced with a misroute set); 0 when disabled.
func (n *Network) MaskedFaults() int64 {
	if n.masked == nil {
		return 0
	}
	total := n.masked.MaskedDecisions()
	// Arbitration routes each request through its domain's wrapper (the
	// wrapper's counters are not concurrent-safe); every request is
	// processed exactly once, so the sum does not depend on the domains.
	for d := range n.dsc {
		total += n.dsc[d].masked.MaskedDecisions()
	}
	return total
}

// MisrouteHops counts nonminimal detour hops actually taken under
// fault-aware routing.
func (n *Network) MisrouteHops() int64 { return n.core.MisrouteHops }

// MaxQueueLen reports the longest current source queue.
func (n *Network) MaxQueueLen() int { return n.core.MaxQueueLen() }

// TakeDelivered returns packets completed since the previous call.
func (n *Network) TakeDelivered() []*Packet {
	out := n.delivered
	n.delivered = nil
	return out
}

// Step advances one cycle: injection, routing/allocation, then per-flit
// movement with one flit per physical channel per cycle.
//
// With Config.Shards > 1, injection and routing/allocation fan out over the
// spatial domains on the worker pool, with the same ordered merges as
// internal/network's step and bit-identical results; per-flit movement —
// whose physical-channel bandwidth arbitration is order-dependent — and
// retirement stay serial. See docs/performance.md for why this engine
// parallelizes fewer phases than internal/network.
func (n *Network) Step() error {
	c := &n.core

	// Phase 0: fault transitions and deadlock recovery (mirrors
	// internal/network).
	c.FaultPhase()
	if c.Recovery.Enabled {
		n.recoveryPhase()
	}

	// Phase 1: injection, over the core's worklist of nodes that have
	// something to send and may have room to send it. Due retries take
	// priority; packets whose destination the fault set has cut off
	// entirely are dropped. The worms the pool workers injected merge in
	// domain order, reproducing the serial ascending-node active order.
	progress := c.InjectPhase()
	for d := range n.dsc {
		dm := &n.dsc[d]
		n.active = append(n.active, dm.injected...)
		clear(dm.injected)
		dm.injected = dm.injected[:0]
	}

	// Phase 2: routing and allocation at the routers where something
	// changed, local FCFS per router, straight off the wait table: one
	// task per domain, on the pool or one after the other.
	if n.shards > 1 {
		c.RunShards(n.arbitrateFn)
		c.AbsorbShardEmitters()
	} else {
		for d := range n.dsc {
			n.arbitrate(d)
		}
	}

	// Phase 3: per-flit movement; phase 4: retirement and the watchdog.
	if n.movementPhase() {
		progress = true
	}
	n.retirePhase()
	return n.finishStep(progress)
}

// recoveryPhase aborts any worm whose header has been stuck past the stall
// threshold; always serial (aborts mutate the active list and shared retry
// state).
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

// movementPhase is the per-flit movement loop. Worms are processed
// head-to-tail so a worm pipelines within itself; iterate to a fixpoint so
// a flit can enter a buffer another packet vacated this cycle. Each flit
// moves at most once (movedAt), and each physical channel carries at most
// one flit (physUsed/ejectUse are stamped with the current cycle, so
// clearing them between cycles is free).
//
// Movement is serial even under sharding: the bandwidth stamps arbitrate
// competing worms on shared physical channels in visit order, so any
// reordering — unlike in internal/network, where a granted worm's target
// buffer is exclusively owned — could change which flit wins a channel.
func (n *Network) movementPhase() bool {
	progress := false
	for {
		any := false
		for _, w := range n.active {
			if n.moveWorm(w) {
				any = true
			}
		}
		if !any {
			break
		}
		progress = true
	}
	return progress
}

// retirePhase removes completed worms from the active list, preserving
// order, and records their delivery.
func (n *Network) retirePhase() {
	c := &n.core
	out := n.active[:0]
	for _, w := range n.active {
		if w.done == w.pkt.Length {
			w.pkt.Arrived = c.Cycle
			n.delivered = append(n.delivered, w.pkt)
			c.PacketsDone++
			p := w.pkt
			c.Em.Deliver(c.Cycle, p.Src, p.Dst, p.Length, p.Hops,
				p.Injected-p.Created, p.Arrived-p.Injected)
			n.recycle(w)
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

// arbitrate is phase 2 for one part of the wait table: every header
// waiting at one of the part's awake routers — routers ascending, each
// router's waiters first come first served — is marked arrived if it sits
// at its destination, and otherwise offered its candidate output virtual
// channels. A header leaves the table when it is granted one or arrives; a
// blocked one stays, and its router sleeps until one of its output virtual
// channels is released or the fault set changes — nothing else can turn the
// refusal into a grant, the candidates being fixed while the header waits.
// With a probe attached every waiter is visited instead: a blocked header
// is a Blocked event every cycle it waits.
//
// The serial step runs the parts one after the other and the sharded step
// one per pool worker. Serial equivalence: a part holds exactly the waiters
// at the domain's routers, so the domains together make the serial pass's
// offers, each router's in the serial order; an offer only touches
// arbitration state at its own head router, which no other domain touches
// in this phase; Blocked events merge in domain order.
func (n *Network) arbitrate(d int) {
	c := &n.core
	dm := &n.dsc[d]
	masked, dirScratch := dm.masked, &dm.dirScratch
	em := &c.Em
	if n.shards > 1 {
		em = c.ShardEmitter(d)
	}
	it := n.wait.WalkAwake(d)
	if em.Enabled() {
		it = n.wait.Walk(d)
	}
	for it.Next() {
		w := it.Waiter()
		r := w.headRouter
		if r == w.pkt.Dst {
			w.arrived = true
			it.Delist()
			continue
		}
		if !w.candsValid {
			// Fixed while the header waits in this buffer; computed
			// once per hop rather than once per cycle.
			if masked != nil {
				w.cands, w.candsMis = masked.FaultCandidates(r, w.pkt.Dst, w.inDir, w.inVC, w.misroutes)
			} else if n.appender != nil {
				w.cands, *dirScratch = n.appender.AppendCandidates(
					w.candBuf[:0], *dirScratch, r, w.pkt.Dst, w.inDir, w.inVC)
			} else {
				w.cands = n.alg.Candidates(r, w.pkt.Dst, w.inDir, w.inVC)
			}
			w.candsValid = true
		}
		base := int(r) * n.dims2
		for _, out := range w.cands {
			if n.faulted[base+int(out.Dir)] {
				continue
			}
			key := (base+int(out.Dir))*n.maxVC + out.VC
			if n.owner[key] == nil {
				n.owner[key] = w
				w.out = out
				w.routed = true
				it.Delist()
				break
			}
		}
		if !w.routed {
			em.Blocked(c.Cycle, r)
		}
	}
}

// abort yanks a blocked worm out of the network. A victim is never
// arrived, and done only advances on arrived worms, so no flit of it was
// consumed: freeing every buffer its flits occupy and every virtual
// channel it still owns loses nothing; the shared core then requeues the
// packet at its source with backoff or drops it.
func (n *Network) abort(w *worm) {
	for k := w.done; k < w.sent; k++ {
		n.occupied[w.path[w.pos[k]]] = false
		if w.pos[k] == 0 {
			n.core.WakeSource(w.pkt.Src)
		}
	}
	// Channels feeding path[j] stay owned until the tail flit passes
	// path[j]; nothing has been released while the tail is uninjected.
	tailPos := 0
	if w.sent == w.pkt.Length {
		tailPos = w.pos[w.pkt.Length-1]
	}
	for j := tailPos + 1; j < len(w.path); j++ {
		from := n.bufRouter(w.path[j-1])
		dir, v := n.bufPort(w.path[j])
		if dir != topology.Invalid {
			n.release(from, dir, v)
		}
	}
	if w.routed {
		n.release(w.headRouter, w.out.Dir, w.out.VC)
	}
	n.wait.Delist(&w.wait)
	for i, x := range n.active {
		if x == w {
			n.active = append(n.active[:i], n.active[i+1:]...)
			break
		}
	}
	p := w.pkt
	n.recycle(w)
	n.core.FinishAbort(p)
}

// release frees an output virtual channel and wakes its router: a header
// refused there may have been waiting for it.
func (n *Network) release(from topology.NodeID, dir topology.Direction, v int) {
	n.owner[n.ownerKey(from, dir, v)] = nil
	n.wait.Wake(int32(from))
}

// leave vacates the buffer at path[p] that flit k moves out of. When the
// tail leaves the injection buffer, the source may inject again.
func (n *Network) leave(w *worm, k, p int) {
	n.occupied[w.path[p]] = false
	if p == 0 && k == w.pkt.Length-1 {
		n.core.WakeSource(w.pkt.Src)
	}
}

// reachable reports whether a packet injected at src can reach dst under
// the VC routing algorithm avoiding faulted physical channels. The search
// states are exactly the input-buffer ids: (node, inDir, inVC); the
// stamped visited marks (scratch shared through the engine core) make
// repeated queries allocation-free.
func (n *Network) reachable(src, dst topology.NodeID) bool {
	if src == dst {
		return true
	}
	c := &n.core
	g := c.Grid
	states := n.topo.Nodes() * n.ports
	if len(c.ReachSeen) < states {
		c.ReachSeen = make([]int32, states)
		c.ReachQueue = make([]int32, 0, states)
	}
	c.ReachStamp++
	stamp := c.ReachStamp
	start := n.injID(src)
	c.ReachSeen[start] = stamp
	q := append(c.ReachQueue[:0], start)
	found := false
	for head := 0; head < len(q) && !found; head++ {
		buf := q[head]
		node := n.bufRouter(buf)
		inDir, inVC := n.bufPort(buf)
		var outs []vc.Out
		if n.masked != nil {
			// Under fault-aware routing the packet follows the masked
			// relation, so retry feasibility must too (misroute budget
			// treated as fresh, matching a reinjected packet).
			outs, _ = n.masked.FaultCandidates(node, dst, inDir, inVC, 0)
		} else if n.appender != nil {
			n.candScratch, n.dirScratch = n.appender.AppendCandidates(
				n.candScratch[:0], n.dirScratch, node, dst, inDir, inVC)
			outs = n.candScratch
		} else {
			outs = n.alg.Candidates(node, dst, inDir, inVC)
		}
		for _, out := range outs {
			if n.faulted[int(node)*n.dims2+int(out.Dir)] {
				continue
			}
			nb, ok := g.Neighbor(node, out.Dir)
			if !ok {
				continue
			}
			if nb == dst {
				found = true
				break
			}
			next := n.bufID(nb, out.Dir, out.VC)
			if c.ReachSeen[next] != stamp {
				c.ReachSeen[next] = stamp
				q = append(q, next)
			}
		}
	}
	c.ReachQueue = q[:0]
	return found
}

// moveWorm advances whichever flits of w can move this cycle, head first.
// It returns true if anything moved.
func (n *Network) moveWorm(w *worm) bool {
	cycle := n.core.Cycle
	anything := false
	for k := w.done; k < w.sent; k++ {
		if w.movedAt[k] == cycle {
			continue
		}
		if n.moveFlit(w, k) {
			w.movedAt[k] = cycle
			anything = true
		}
	}
	// Inject the next flit if the injection buffer just freed up.
	if w.sent < w.pkt.Length && !n.occupied[w.path[0]] && w.movedAt[w.sent] != cycle {
		w.pos[w.sent] = 0
		n.occupied[w.path[0]] = true
		w.movedAt[w.sent] = cycle
		w.sent++
		anything = true
	}
	return anything
}

// moveFlit tries to advance flit k of worm w by one hop.
func (n *Network) moveFlit(w *worm, k int) bool {
	c := &n.core
	cycle := c.Cycle
	p := w.pos[k]
	cur := w.path[p]
	if p == len(w.path)-1 {
		// Front of the worm: either the header extends the path or a
		// flit is consumed at the destination.
		router := w.headRouter
		if w.arrived {
			if !n.uncappedEject {
				if n.ejectUse[router] == cycle {
					return false
				}
				n.ejectUse[router] = cycle
			}
			n.leave(w, k, p)
			w.pos[k] = p + 1
			w.done++
			c.FlitsConsumed++
			n.releaseBehind(w, p)
			return true
		}
		if k != 0 || !w.routed {
			return false
		}
		next, ok := c.Grid.Neighbor(router, w.out.Dir)
		if !ok {
			panic(fmt.Sprintf("vcnet: allocated output %v at node %d has no channel", w.out, router))
		}
		physKey := int(router)*n.dims2 + int(w.out.Dir)
		nb := n.bufID(next, w.out.Dir, w.out.VC)
		if n.physUsed[physKey] == cycle || n.occupied[nb] {
			return false
		}
		n.physUsed[physKey] = cycle
		n.occupied[nb] = true
		n.leave(w, k, p)
		w.path = append(w.path, nb)
		w.pos[k] = p + 1
		w.pkt.Hops++
		w.headerArrival = cycle
		w.inDir = w.out.Dir
		w.inVC = w.out.VC
		w.headRouter = next
		w.routed = false
		w.candsValid = false
		if w.candsMis {
			// The hop came from a misroute fallback set: charge the
			// packet's budget and the network-wide counter.
			w.misroutes++
			c.MisrouteHops++
			w.candsMis = false
		}
		c.Em.FlitMove(cycle, router, w.out.Dir, 1)
		n.releaseBehind(w, p)
		// Movement is serial at every shard count, so the header joins
		// its new router's waiters directly.
		n.enlist(w)
		return true
	}
	// Body flit: follow the path.
	nb := w.path[p+1]
	if n.occupied[nb] {
		return false
	}
	router := n.bufRouter(cur)
	dir := topology.Direction(n.portDir[nb])
	physKey := int(router)*n.dims2 + int(dir)
	if n.physUsed[physKey] == cycle {
		return false
	}
	n.physUsed[physKey] = cycle
	n.occupied[nb] = true
	n.leave(w, k, p)
	w.pos[k] = p + 1
	c.Em.FlitMove(cycle, router, dir, 1)
	n.releaseBehind(w, p)
	return true
}

// releaseBehind releases the output virtual channel feeding path[p+1] if
// the flit that just left path[p] was the worm's tail (no more flits will
// cross that channel).
func (n *Network) releaseBehind(w *worm, p int) {
	// The flit that moved sat at path[p]. If it is the last flit of the
	// packet, the channel it just crossed (feeding path[p+1]) is done.
	// For non-final flits nothing is released.
	if w.sent < w.pkt.Length {
		return
	}
	// Tail flit is flit Length-1; it just moved from p to p+1 only if
	// its position is now p+1.
	if w.pos[w.pkt.Length-1] != p+1 {
		return
	}
	if p+1 >= len(w.path) {
		return
	}
	from := n.bufRouter(w.path[p])
	dir, v := n.bufPort(w.path[p+1])
	if dir == topology.Invalid {
		return
	}
	n.release(from, dir, v)
}
