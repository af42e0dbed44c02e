// Package vcnet is a flit-level wormhole simulator for networks with
// virtual channels. Unlike internal/network — where a physical channel
// belongs to one worm at a time, so a worm always advances as a unit —
// virtual channels share a physical channel's bandwidth (one flit per
// cycle per physical link), so the worms multiplexed on a link interleave
// flit by flit and bubbles open inside them. A worm is therefore kept as a
// short list of runs — stretches of consecutive flits in consecutive
// buffers — each of which advances one buffer per cycle as a unit and
// splits where one of its flits is refused bandwidth. Movement visits only
// the worms that can move, in the order a sweep of every flit in flight
// would reach them, so the results are those of that sweep (see
// movementPhase and docs/performance.md). A worm whose header has arrived
// and which streams as one run — a flit in at the source and one out at the
// destination each cycle — sleeps on a timer instead, holding the bandwidth
// it would win each cycle as a reservation (see sleep).
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
	"math"
	"math/bits"
	"slices"

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
	// instrumentation. As in internal/network, a FlitMove reports a
	// packet's flits when its tail crosses a channel, releasing it.
	Probe metrics.Probe
	// UncappedEjection lifts the one-flit-per-cycle limit on each node's
	// ejection channel, matching internal/network's model of Section 6
	// ("arriving messages are consumed immediately", with no bandwidth
	// cap at the destination). Off by default: the virtual-channel
	// simulations archived in docs/ treat ejection as one more physical
	// channel. The differential harness in internal/engine turns it on,
	// making vcnet-with-1-VC observation-equivalent to network.
	UncappedEjection bool
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

// worm is a packet in the network. path is the chain of input buffers the
// header has entered; the flits done..sent-1 are in the network, the ones
// before done consumed, the ones from sent on still at the source.
type worm struct {
	pkt  *Packet
	path []int32
	// runs partitions the in-network flits into runs, head first: within
	// a run flit k sits at path index front-(k-first), and a run's last flit
	// sits further up the path than the next run's first. Backed by runBuf
	// until a worm fragments further.
	runs []run
	// slot is the worm's index in Network.slots, whose order is injection
	// order — the order of every movement round.
	slot int
	// out is the allocated output at the header's current router, valid
	// while routed.
	out    vc.Out
	routed bool
	// arrived is set once the header has entered the destination router.
	arrived       bool
	headerArrival int64
	sent, done    int
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
	// wakeAt is, while the worm sleeps (see sleep), the cycle its timer is
	// due; 0 when it is awake. A sleeper's done, sent and run are as they
	// stood when it fell asleep (see slept).
	wakeAt int64

	// wait is the header's link in the wait table while it waits for an
	// output at headRouter (see engine.WaitTable).
	wait engine.WaitLink[*worm]

	candBuf [8]vc.Out
	pathBuf [16]int32
	runBuf  [4]run
}

// run is a stretch of a worm's flits, first..last, in consecutive buffers:
// flit first at path index front, the others behind it. Its flits all moved
// in cycle moved, or none of them did this cycle.
type run struct {
	first, last int
	front       int
	moved       int64
}

// tail is the path index of the run's last flit.
func (r *run) tail() int { return r.front - (r.last - r.first) }

// slept reports how many cycles a sleeping worm has streamed through by the
// start of cycle c: it fell asleep at the end of its visit in cycle
// wakeAt − (Length − sent), and has consumed and injected one flit in every
// cycle since.
func (w *worm) slept(c int64) int { return int(c-w.wakeAt) + w.pkt.Length - w.sent - 1 }

func (w *worm) headBuf() int32 { return w.path[len(w.path)-1] }

// mergeRuns joins neighbouring runs that have come to sit nose to tail and
// share their moved-this-cycle status, so a worm that stopped fragmenting
// moves as one run again.
func (w *worm) mergeRuns(cycle int64) {
	rs := w.runs
	if len(rs) < 2 {
		return
	}
	k := 0
	for _, r := range rs[1:] {
		if p := &rs[k]; p.tail() == r.front+1 && (p.moved == cycle) == (r.moved == cycle) {
			p.last = r.last
			continue
		}
		k++
		rs[k] = r
	}
	w.runs = rs[:k+1]
}

// slotSet is a set of slots — indices into Network.slots — as a bitmap, so
// that its members come out in slot order, which is injection order.
type slotSet []uint64

func (b slotSet) add(s int)      { b[s>>6] |= 1 << (s & 63) }
func (b slotSet) remove(s int)   { b[s>>6] &^= 1 << (s & 63) }
func (b slotSet) has(s int) bool { return b[s>>6]&(1<<(s&63)) != 0 }

// timed is a timer entry naming a worm — its stall timeout (recovery only)
// or the end of its sleep; the packet ID tells an entry that outlived its
// packet from a live one, worms being recycled.
type timed struct {
	w  *worm
	id int64
}

// reserved is the physUsed value of a channel a sleeping worm reserves.
const reserved = math.MaxInt64

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

	// physUsed enforces one flit per physical channel per cycle, the
	// ejection channels included; stamping with the cycle number makes
	// "clear at start of phase" free. Only physical channels carrying more
	// than one virtual channel are stamped: a one-VC channel is held by one
	// worm, whose flits cross it at most once each. stampOf names, for
	// every buffer, the physUsed entry of the physical channel feeding it,
	// or -1 when that carries one virtual channel (or the buffer is an
	// injection buffer). ejectBase is the entry of node 0's ejection
	// channel, the others following in node order, or -1 when ejection is
	// not limited (Config.UncappedEjection). An entry a sleeping worm
	// reserves reads reserved, and resv names the sleeper.
	physUsed  []int64 // node*2n+dir, then ejectBase+node -> last cycle the channel carried a flit
	resv      []*worm // physUsed index -> the sleeper reserving the channel
	stampOf   []int32 // buffer id -> physUsed index, or -1
	ejectBase int32

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

	// slots holds the worms in the network in injection order, nil where
	// one has left since the last compaction (see activate); live counts
	// them. finished collects the worms whose last flit was consumed this
	// cycle, for retirePhase; delivered their packets, until TakeDelivered
	// hands them back in the slice it last returned, taken.
	slots            []*worm
	live             int
	finished         []*worm
	delivered, taken []*Packet
	// wait holds the headers waiting for an output virtual channel, filed
	// by router in local-FCFS order (header arrival cycle, then packet ID;
	// see engine.WaitTable); phase 2 walks its awake routers instead of
	// collecting and sorting requests.
	wait *engine.WaitTable[*worm]

	// awake holds the slots of the worms the next movement phase visits
	// first; round and later are the current and the next round of the
	// movement phase in progress, whose visit is at slot cursor, first
	// records that the round is the phase's first, and more that a wake
	// landed in later (see movementPhase and wakeWorm). All three sets have
	// a bit for every slot.
	awake, round, later slotSet
	moving, first, more bool
	cursor              int

	// sleepers holds the timers of the worms asleep (see sleep); asleep
	// counts those worms and dozed the ones that fell asleep in the movement
	// phase under way. Entries of a sleep that was broken stay behind and
	// are dropped when due. stalls holds recovery's stall timeouts (see
	// recoveryPhase).
	sleepers      engine.Timers[timed]
	asleep, dozed int
	stalls        engine.Timers[timed]

	// victims is recovery's scratch and free the stock of recycled worms
	// (see newWorm). dirScratch and candScratch are reused by the candidate
	// queries of arbitrate and reachable().
	victims     []*worm
	free        []*worm
	dirScratch  []topology.Direction
	candScratch []vc.Out
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
	n.physUsed = make([]int64, topo.Nodes()*(n.dims2+1))
	n.resv = make([]*worm, len(n.physUsed))
	for i := range n.physUsed {
		n.physUsed[i] = -1
	}
	n.ejectBase = int32(topo.Nodes() * n.dims2)
	if cfg.UncappedEjection {
		n.ejectBase = -1
	}
	n.routerOf = make([]int32, topo.Nodes()*n.ports)
	n.portDir = make([]int16, topo.Nodes()*n.ports)
	n.portVC = make([]int16, topo.Nodes()*n.ports)
	n.stampOf = make([]int32, topo.Nodes()*n.ports)
	multi := make([]bool, n.dims2)
	for d := range multi {
		multi[d] = cfg.Routing.VCs(topology.Direction(d)) > 1
	}
	for b := range n.routerOf {
		n.routerOf[b] = int32(b / n.ports)
		n.stampOf[b] = -1
		p := b % n.ports
		if p == n.ports-1 {
			n.portDir[b] = int16(topology.Invalid)
			n.portVC[b] = 0
			continue
		}
		d := topology.Direction(p / n.maxVC)
		n.portDir[b] = int16(d)
		n.portVC[b] = int16(p % n.maxVC)
		if from, ok := topo.Neighbor(topology.NodeID(b/n.ports), d.Opposite()); ok && multi[d] {
			n.stampOf[b] = int32(int(from)*n.dims2 + int(d))
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
			for it := n.wait.Walk(); it.Next(); {
				it.Waiter().candsValid = false
			}
		}
		n.wait.WakeAll()
	}
	n.faulted = n.core.Faulted
	if n.core.Health != nil {
		n.masked = vc.NewFaultAware(cfg.Routing, n.core.Health, n.core.FaultPol)
	}
	n.appender, _ = cfg.Routing.(vc.CandidateAppender)
	n.wait = engine.NewWaitTable[*worm](topo.Nodes())
	return n
}

// Close releases nothing: a Network holds no goroutine or file. It is kept
// so that callers written against an interface with Close still compile.
func (n *Network) Close() {}

// newWorm puts the packet's header into the node's free injection buffer,
// where it starts waiting for an output. The worm — and with it a path or
// run list that outgrew the worm's inline buffers — comes off the free list
// when that has one: retirePhase and abort put worms there once
// nothing in the network refers to them any more — not owner, the wait
// table or the slots — and every field but the inline buffers is set afresh
// here. A stall timer may still name the worm: its entry carries the
// packet's ID and is dropped when that no longer matches. Under recovery the
// new worm's own stall timeout is armed.
func (n *Network) newWorm(node topology.NodeID, p *Packet) *worm {
	var w *worm
	if k := len(n.free) - 1; k >= 0 {
		w, n.free[k], n.free = n.free[k], nil, n.free[:k]
	} else {
		w = new(worm)
	}
	// Field by field rather than *w = worm{...}, which would zero the
	// inline candBuf, pathBuf and runBuf arrays too.
	w.pkt = p
	w.slot = 0
	w.out, w.routed, w.arrived = vc.Out{}, false, false
	w.headerArrival = n.core.Cycle
	w.sent, w.done = 1, 0
	w.headRouter, w.inDir, w.inVC = node, topology.Invalid, 0
	w.cands, w.candsValid, w.candsMis, w.misroutes = nil, false, false, 0
	w.wakeAt = 0
	w.wait = engine.WaitLink[*worm]{Owner: w}
	path, runs := w.path, w.runs
	inj := n.injID(node)
	if cap(path) <= len(w.pathBuf) {
		path = w.pathBuf[:]
	}
	w.path = append(path[:0], inj)
	if cap(runs) <= len(w.runBuf) {
		runs = w.runBuf[:]
	}
	// The header has not moved this cycle: granted in phase 2, it hops in
	// phase 3 of the cycle it was injected in.
	w.runs = append(runs[:0], run{moved: -1})
	n.occupied[inj] = true
	n.enlist(w)
	if rec := &n.core.Recovery; rec.Enabled {
		n.stalls.Push(w.headerArrival+rec.StallCycles, timed{w: w, id: p.ID})
	}
	return w
}

// enlist records that the worm's header entered a buffer at its head
// router and waits there for an output, first come first served.
func (n *Network) enlist(w *worm) {
	n.wait.Enlist(&w.wait, int32(w.headRouter), w.headerArrival, w.pkt.ID)
}

// activate gives a newly injected worm the next slot. When more than half
// of the slots are holes left by worms that retired or were aborted, the
// live worms are first packed down, in order, taking their awake bits with
// them — activate runs before the movement phase, when no round is under
// way — so slots and bitmaps stay within twice the population.
func (n *Network) activate(w *worm) {
	if len(n.slots) >= 2*n.live+64 {
		k := 0
		for s, x := range n.slots {
			if x == nil {
				continue
			}
			if n.awake.has(s) {
				n.awake.remove(s)
				n.awake.add(k)
			}
			x.slot = k
			n.slots[k] = x
			k++
		}
		clear(n.slots[k:])
		n.slots = n.slots[:k]
	}
	w.slot = len(n.slots)
	n.slots = append(n.slots, w)
	n.live++
	if words := (len(n.slots) + 63) >> 6; words > len(n.awake) {
		n.awake = append(n.awake, 0)
		n.round = append(n.round, 0)
		n.later = append(n.later, 0)
	}
}

// deactivate takes a worm that retired or was aborted out of the slots; a
// movement phase is not under way, so only its awake bit can be set.
func (n *Network) deactivate(w *worm) {
	n.slots[w.slot] = nil
	n.awake.remove(w.slot)
	n.live--
}

// recycle puts a worm nothing refers to any more on the free list.
func (n *Network) recycle(w *worm) {
	w.pkt, w.cands = nil, nil
	n.free = append(n.free, w)
}

// placeWorm is the core's injection hook.
func (n *Network) placeWorm(node topology.NodeID, p *Packet) {
	n.activate(n.newWorm(node, p))
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

// feederKey is the owner key of the virtual channel from buffer from's
// router into buffer to, the one channel that feeds to.
func (n *Network) feederKey(from, to int32) int {
	return (int(n.routerOf[from])*n.dims2+int(n.portDir[to]))*n.maxVC + int(n.portVC[to])
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
func (n *Network) InFlight() int { return n.live + n.core.Backlog() }

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
	return n.masked.MaskedDecisions()
}

// MisrouteHops counts nonminimal detour hops actually taken under
// fault-aware routing.
func (n *Network) MisrouteHops() int64 { return n.core.MisrouteHops }

// MaxQueueLen reports the longest current source queue.
func (n *Network) MaxQueueLen() int { return n.core.MaxQueueLen() }

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

// Step advances one cycle: injection, routing/allocation, then movement
// with one flit per physical channel per cycle.
//
// Nothing that cannot move is looked at: movement visits the worms woken
// since their last visit (see movementPhase), worms streaming into their
// destination and stall timeouts sleep on timers (see sleep and
// recoveryPhase), and retirement runs only on a cycle that finished a worm.
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
	// entirely are dropped.
	progress := c.InjectPhase()
	if n.live == 0 {
		// An empty network: nobody waits or moves.
		return n.finishStep(progress)
	}

	// Phase 2: routing and allocation at the routers where something
	// changed, local FCFS per router, straight off the wait table. The
	// worms it granted an output or found arrived are movement's to visit.
	n.arbitrate()

	// Phase 3: movement; phase 4: retirement and the watchdog.
	if n.movementPhase() {
		progress = true
	}
	if len(n.finished) > 0 {
		n.retirePhase()
	}
	return n.finishStep(progress)
}

// recoveryPhase aborts any worm whose header has been stuck past the stall
// threshold. It looks at the stall timers that are due, not at the worms:
// every worm that has not arrived has exactly one entry, armed by newWorm
// for the cycle its header would have stood still for StallCycles. A due
// entry whose worm has arrived since, or has been retired and recycled for
// another packet, is dropped; one whose header has moved is re-armed for the
// cycle the new position times out; the rest are the victims, on exactly
// the cycle a scan of every active worm would find them. They are aborted
// in injection order, the order of that scan: abort order is the order of
// the retry lists and of the Abort, Retry and Drop events.
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
		v = append(v, w)
	}
	sortBySlot(v)
	for _, w := range v {
		n.abort(w)
	}
	clear(v)
	n.victims = v[:0]
}

// movementPhase moves every worm that can move, with the outcome of a sweep
// that visits every active worm in injection order — each worm's flits head
// to tail, one buffer each, each physical channel carrying one flit — and
// repeats until a round moves nothing, so that a flit can enter a buffer
// another worm vacated earlier in the cycle. Each physical channel and each
// ejection channel carries at most one flit per cycle — stamped in physUsed
// with the current cycle, so clearing the stamps between cycles is free, and
// won by the first worm in visit order to ask: the visit order is the
// arbitration. (A channel with one virtual channel needs no stamp: its one
// holder's flits cross it one after the other.)
//
// A visit that moves nothing changes nothing, so the rounds visit only the
// worms that can have something to move — in injection order, as the sweep
// would reach them. A worm is due in the next cycle's first round if it
// moved (its flits may move on) or one of its flits was refused bandwidth
// (the stamps clear with the cycle), and in this cycle's if phase 2 granted
// its header an output or found it arrived, or recovery freed a buffer it
// waits for. Within a cycle only a header can be blocked by another worm:
// it waits for the previous holder's tail to leave the buffer its new
// virtual channel feeds, and the tail's leaving wakes it (wakeWorm) — into
// the round under way if the sweep's cursor has not yet passed it, into the
// next round otherwise, which is exactly when the sweep would reach it.
//
// The sleepers (see sleep) whose timers are due wake first, into the first
// round; the ones still asleep when the rounds are over each consumed a flit
// this cycle, and are counted.
func (n *Network) movementPhase() bool {
	c := &n.core
	for {
		e, ok := n.sleepers.PopDue(c.Cycle)
		if !ok {
			break
		}
		if w := e.w; w.pkt != nil && w.pkt.ID == e.id && w.wakeAt == c.Cycle {
			n.endSleep(w)
		}
	}
	progress := false
	n.moving, n.first = true, true
	n.round, n.awake = n.awake, n.round
	words := (len(n.slots) + 63) >> 6
	for {
		n.more = false
		for i := 0; i < words; i++ {
			// Reread the word after every visit: a wake may have added a
			// slot beyond the cursor to it.
			for n.round[i] != 0 {
				s := i<<6 | bits.TrailingZeros64(n.round[i])
				n.round.remove(s)
				n.cursor = s
				w := n.slots[s]
				moved, refused := n.moveWorm(w)
				if moved {
					progress = true
				}
				if (moved || refused) && w.done < w.pkt.Length && w.wakeAt == 0 {
					n.awake.add(s)
				}
			}
		}
		n.round, n.later = n.later, n.round
		n.first = false
		if !n.more {
			break
		}
	}
	n.moving = false
	if k := n.asleep - n.dozed; k > 0 {
		c.FlitsConsumed += int64(k)
		progress = true
	}
	n.dozed = 0
	return progress
}

// wakeWorm makes a worm due for a visit: between steps, in the next
// movement phase's first round; during one, in the round under way if that
// has not reached the worm's slot yet, and in the next one otherwise.
func (n *Network) wakeWorm(w *worm) {
	switch {
	case !n.moving:
		n.awake.add(w.slot)
	case w.slot > n.cursor:
		n.round.add(w.slot)
	default:
		n.later.add(w.slot)
		n.more = true
	}
}

// sleep puts a streaming worm to sleep until its source has nothing left to
// send. moveWorm calls it at the end of a visit that left w arrived, one run
// from the injection buffer to the destination buffer, with every flit moved
// and the front one consumed, and at least two flits still at the source.
// Until the source sends its last flit, each cycle's visit would do the
// same: take the ejection channel and the bandwidth of every stamped channel
// of the path, consume a flit, move the others up and inject the next —
// nothing another worm or a probe can see but the bandwidth: no tail crosses
// a channel. So the worm leaves the visits for a timer due in the cycle it
// is to inject its last flit (wakeAt = now + Length − sent), and reserves
// the channels instead: physUsed reads reserved and resv names the worm. The
// sweep visits a streaming worm in the first round at its slot, so a claim
// on a reserved channel made after that place (a later round, or the first
// at a larger slot) is refused, as the sweep refused it; one made before it
// breaks the sleep (see preempt). While the worm sleeps, movementPhase
// counts its flit each cycle.
//
// No two sleepers share a channel: of two worms claiming one each cycle,
// one is refused and so is not eligible; and a sleeper's own flits hold
// every buffer of its path, so no other worm is blocked on it, woken by it or
// aborted, and it is never woken by anything but its timer or a claim.
func (n *Network) sleep(w *worm) {
	w.wakeAt = n.core.Cycle + int64(w.pkt.Length-w.sent)
	n.sleepers.Push(w.wakeAt, timed{w: w, id: w.pkt.ID})
	n.asleep++
	n.dozed++
	n.reserve(w, reserved, w)
}

// endSleep wakes a sleeper in the current cycle, before the place the sweep
// would visit it: its flits, counters and run are brought to where they
// stood at the end of the previous cycle, its reservations are released and
// it is made due (wakeWorm), for the first round at its slot.
func (n *Network) endSleep(w *worm) {
	cycle := n.core.Cycle
	k := w.slept(cycle)
	w.done += k
	w.sent += k
	r := &w.runs[0]
	r.first += k
	r.last += k
	r.moved = cycle - 1
	w.wakeAt = 0
	n.asleep--
	n.reserve(w, cycle-1, nil)
	n.wakeWorm(w)
}

// preempt settles a claim on a channel sleeper s reserves: made before the
// sweep's visit of s — in the first round, at a smaller slot — it breaks the
// sleep, leaving the channel free for the claimant, and s joins the round at
// its slot, where it is refused as the sweep refused it; made after that
// visit it is refused. It reports whether the channel is free.
func (n *Network) preempt(s *worm) bool {
	if !n.first || n.cursor >= s.slot {
		return false
	}
	n.endSleep(s)
	return true
}

// reserve sets the physUsed entries of the channels a streaming worm claims
// each cycle — every stamped channel of its path and its ejection channel —
// to u, and their resv entries to by.
func (n *Network) reserve(w *worm, u int64, by *worm) {
	for _, b := range w.path[1:] {
		if k := n.stampOf[b]; k >= 0 {
			n.physUsed[k], n.resv[k] = u, by
		}
	}
	if k := n.ejectOf(w.headRouter); k >= 0 {
		n.physUsed[k], n.resv[k] = u, by
	}
}

// ejectOf is the physUsed index of the node's ejection channel, or -1 when
// ejection is not limited.
func (n *Network) ejectOf(node topology.NodeID) int32 {
	if n.ejectBase < 0 {
		return -1
	}
	return n.ejectBase + int32(node)
}

// retirePhase takes the worms whose last flit was consumed this cycle out
// of the slots and records their delivery, in injection order whatever
// order movement finished them in: TakeDelivered's order feeds the callers'
// floating-point latency sums.
func (n *Network) retirePhase() {
	c := &n.core
	f := n.finished
	sortBySlot(f)
	for _, w := range f {
		p := w.pkt
		p.Arrived = c.Cycle
		n.delivered = append(n.delivered, p)
		c.PacketsDone++
		c.Em.Deliver(c.Cycle, p.Src, p.Dst, p.Length, p.Hops,
			p.Injected-p.Created, p.Arrived-p.Injected)
		n.deactivate(w)
		n.recycle(w)
	}
	clear(f)
	n.finished = f[:0]
}

// sortBySlot puts worms in slot order, which is injection order.
func sortBySlot(ws []*worm) {
	slices.SortFunc(ws, func(a, b *worm) int { return a.slot - b.slot })
}

// finishStep closes the cycle through the core and builds the deadlock
// error if the watchdog fired.
func (n *Network) finishStep(progress bool) error {
	c := &n.core
	if c.EndStep(progress, n.live) {
		stuck := make([]*Packet, 0, 4)
		for _, w := range n.slots {
			if w != nil && len(stuck) < 4 {
				stuck = append(stuck, w.pkt)
			}
		}
		return c.Deadlock(n.live, stuck)
	}
	return nil
}

// arbitrate is phase 2: every header the wait table has due — new at its
// router, or wanting an output virtual channel released there since its last
// offer, or waiting through a change of the fault set — is visited routers
// ascending, each router's waiters first come first served, marked arrived
// if it sits at its destination, and otherwise offered its candidate output
// virtual channels. A header leaves the table when it is granted one or
// arrives, and its worm is made due for movement's first round; a blocked
// one stays, and sleeps until one of the output virtual channels its
// candidates name is released or the fault set changes — nothing else can
// turn the refusal into a grant, the candidates being fixed while the header
// waits. A probe learns of the wait when it ends, at the grant.
func (n *Network) arbitrate() {
	c := &n.core
	for it := n.wait.WalkAwake(); it.Next(); {
		w := it.Waiter()
		r := w.headRouter
		if r == w.pkt.Dst {
			w.arrived = true
			it.Delist()
			n.awake.add(w.slot)
			continue
		}
		if !w.candsValid {
			// Fixed while the header waits in this buffer; computed
			// once per hop rather than once per cycle.
			if n.masked != nil {
				w.cands, w.candsMis = n.masked.AppendFaultCandidates(
					w.candBuf[:0], r, w.pkt.Dst, w.inDir, w.inVC, w.misroutes)
			} else if n.appender != nil {
				w.cands, n.dirScratch = n.appender.AppendCandidates(
					w.candBuf[:0], n.dirScratch, r, w.pkt.Dst, w.inDir, w.inVC)
			} else {
				w.cands = n.alg.Candidates(r, w.pkt.Dst, w.inDir, w.inVC)
			}
			w.candsValid = true
			var wants uint64
			for _, out := range w.cands {
				wants |= engine.OutputBit(int(out.Dir)*n.maxVC + out.VC)
			}
			w.wait.SetWants(wants)
		}
		base := int(r) * n.dims2
		for _, out := range w.cands {
			if n.faulted[base+int(out.Dir)] {
				continue
			}
			key := (base+int(out.Dir))*n.maxVC + out.VC
			if n.owner[key] == nil {
				c.Em.Blocked(r, n.waitFrom(w), c.Cycle)
				n.owner[key] = w
				w.out = out
				w.routed = true
				it.Delist()
				n.awake.add(w.slot)
				break
			}
		}
	}
}

// waitFrom is the first cycle the header at the worm's head router could be
// offered an output: the cycle it entered the buffer there if it was
// injected, injection running before phase 2, and the next one if it
// hopped there, movement running after it. A header still waiting has been
// refused an output in every cycle since.
func (n *Network) waitFrom(w *worm) int64 {
	if w.inDir == topology.Invalid {
		return w.headerArrival
	}
	return w.headerArrival + 1
}

// FlushBlocked reports to the probe every header still waiting for an
// output as blocked up to the current cycle, and delivers the events of the
// cycles stepped so far; a wait it reported is reported again, when it
// ends, from the current cycle on (see metrics.Probe). Call it between
// steps, before reading a collector attached to the network. It does
// nothing without a probe.
func (n *Network) FlushBlocked() {
	c := &n.core
	if c.Em.Probe() == nil {
		return
	}
	for it := n.wait.Walk(); it.Next(); {
		w := it.Waiter()
		c.Em.Blocked(w.headRouter, n.waitFrom(w), c.Cycle)
	}
	c.Em.Flush(c.Cycle)
}

// abort yanks a blocked worm out of the network. A victim is never
// arrived, and done only advances on arrived worms, so no flit of it was
// consumed: freeing every buffer its flits occupy and every virtual
// channel it still owns loses nothing; the shared core then requeues the
// packet at its source with backoff or drops it. A header granted the
// channel feeding a freed buffer may have been waiting for it, and is woken.
func (n *Network) abort(w *worm) {
	for i := range w.runs {
		r := &w.runs[i]
		for j := r.tail(); j <= r.front; j++ {
			n.occupied[w.path[j]] = false
			if j == 0 {
				n.core.WakeSource(w.pkt.Src)
			}
		}
	}
	// Channels feeding path[j] stay owned until the tail flit passes
	// path[j]; nothing has been released while the tail is uninjected.
	tailPos := 0
	if w.sent == w.pkt.Length {
		tailPos = w.runs[len(w.runs)-1].tail()
	}
	for j := tailPos + 1; j < len(w.path); j++ {
		n.release(n.feederKey(w.path[j-1], w.path[j]), n.bufRouter(w.path[j-1]))
	}
	if w.routed {
		n.release(n.ownerKey(w.headRouter, w.out.Dir, w.out.VC), w.headRouter)
	}
	if w.wait.Listed() {
		n.core.Em.Blocked(w.headRouter, n.waitFrom(w), n.core.Cycle)
		n.wait.Delist(&w.wait)
	}
	for i := range w.runs {
		r := &w.runs[i]
		for j := max(r.tail(), 1); j <= r.front; j++ {
			if x := n.owner[n.feederKey(w.path[j-1], w.path[j])]; x != nil {
				n.wakeWorm(x)
			}
		}
	}
	n.deactivate(w)
	p := w.pkt
	n.recycle(w)
	n.core.FinishAbort(p)
}

// release frees the output virtual channel with the given owner key, one
// of router from's, and tells the wait table: a header refused there may
// have been waiting for it. The router's outputs are numbered dir·maxVC+vc,
// the key's offset from the router's first.
func (n *Network) release(key int, from topology.NodeID) {
	n.owner[key] = nil
	n.wait.Release(int32(from), key-int(from)*n.dims2*n.maxVC)
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
			n.candScratch, _ = n.masked.AppendFaultCandidates(n.candScratch[:0], node, dst, inDir, inVC, 0)
			outs = n.candScratch
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

// moveWorm advances whatever of w can move this cycle, run by run from the
// head: a run whose first flit can move — consumed at the destination, the
// header hopping over its allocated channel, or a body flit entering the
// free buffer ahead — advances one buffer together with as many of its
// flits as are granted bandwidth, and splits behind the first that is not;
// then the next flit enters the injection buffer if that is free. This is
// flit-by-flit movement head to tail with one move per flit per cycle: a
// flit blocked by its predecessor's buffer moves exactly when its
// predecessor does. It reports whether anything moved and whether a flit
// was refused bandwidth. A worm left streaming falls asleep (see sleep).
func (n *Network) moveWorm(w *worm) (moved, refused bool) {
	c := &n.core
	cycle := c.Cycle
	w.mergeRuns(cycle)
	// streamed records that the worm was one run, which moved whole with
	// its front flit consumed.
	whole, streamed := len(w.runs) == 1, false
	// ahead is the path index of the nearest flit ahead of the run being
	// moved; a run may only enter a free buffer.
	ahead := len(w.path)
	for i := 0; i < len(w.runs); i++ {
		r := w.runs[i]
		size := r.last - r.first + 1
		if r.moved == cycle {
			ahead = r.tail()
			continue
		}
		// m counts the run's flits that move, head first.
		m, eject := 0, false
		switch {
		case r.front+1 < len(w.path):
			if r.front+1 != ahead {
				m = n.advance(w, r.front, size)
				refused = refused || m < size
			}
		case w.arrived:
			if n.stamp(n.ejectOf(w.headRouter)) {
				m, eject = 1+n.advance(w, r.front-1, size-1), true
				refused = refused || m < size
				streamed = whole && m == size
			} else {
				refused = true
			}
		case w.routed:
			// The front of a worm whose header has not arrived is the
			// header.
			hopped, busy := n.hop(w)
			if hopped {
				m = 1 + n.advance(w, r.front-1, size-1)
			}
			refused = refused || busy || hopped && m < size
		}
		if m == 0 {
			ahead = r.tail()
			continue
		}
		moved = true

		// Flits first..first+m-1 advanced one buffer: the one the last of
		// them left is vacated, the one ahead of the run filled, unless the
		// first was consumed.
		lastMoved := r.first + m - 1
		vacated := r.front - m + 1
		n.occupied[w.path[vacated]] = false
		advanced := run{first: r.first, last: lastMoved, front: r.front + 1, moved: cycle}
		if eject {
			advanced.first++
			advanced.front = r.front
			w.done++
			c.FlitsConsumed++
			if w.done == w.pkt.Length {
				n.finished = append(n.finished, w)
			}
		} else {
			n.occupied[w.path[r.front+1]] = true
		}
		if lastMoved == w.pkt.Length-1 {
			n.tailLeft(w, vacated)
		}
		rest := run{first: lastMoved + 1, last: r.last, front: r.front - m, moved: r.moved}
		switch {
		case advanced.first > advanced.last && m == size:
			// The run was one flit, consumed.
			w.runs = slices.Delete(w.runs, i, i+1)
			i--
			ahead = vacated + 1
		case advanced.first > advanced.last:
			w.runs[i] = rest
			ahead = rest.tail()
		case m == size:
			w.runs[i] = advanced
			ahead = vacated + 1
		default:
			// Split: the rest was refused, and stays put this cycle.
			w.runs[i] = advanced
			w.runs = slices.Insert(w.runs, i+1, rest)
			i++
			ahead = rest.tail()
		}
	}
	if w.sent < w.pkt.Length && !n.occupied[w.path[0]] {
		// Only the worm's own flits enter its injection buffer, and one
		// left it in this visit, so the new flit joins that flit's run.
		n.occupied[w.path[0]] = true
		w.runs[len(w.runs)-1].last++
		w.sent++
	}
	if streamed && w.sent < w.pkt.Length-1 {
		n.sleep(w)
	}
	return moved, refused
}

// stamp claims this cycle's bandwidth of the physical channel with
// physUsed index k (-1: a channel that needs no claim), and reports
// whether it was still free — a channel a sleeper reserves is free only to
// a claim that breaks the sleep (see preempt).
func (n *Network) stamp(k int32) bool {
	if k < 0 {
		return true
	}
	if u := n.physUsed[k]; u >= n.core.Cycle && (u == n.core.Cycle || !n.preempt(n.resv[k])) {
		return false
	}
	n.physUsed[k] = n.core.Cycle
	return true
}

// advance moves the k flits of w at path indices p, p-1, ... each into
// the buffer ahead of it, front first, until one is refused bandwidth, and
// returns how many moved. The buffer ahead of the first must be free; each
// of the others is the one its predecessor left.
func (n *Network) advance(w *worm, p, k int) int {
	if n.maxVC == 1 {
		return k
	}
	for j := 0; j < k; j++ {
		if !n.stamp(n.stampOf[w.path[p-j+1]]) {
			return j
		}
	}
	return k
}

// hop moves the routed header over its allocated channel into the next
// router and files it in the wait table there. It reports whether the
// header moved and, if not, whether it was refused bandwidth (rather than
// finding the buffer still held by the previous holder's tail, which wakes
// it when it leaves).
func (n *Network) hop(w *worm) (moved, refused bool) {
	c := &n.core
	cycle := c.Cycle
	router := w.headRouter
	next, ok := c.Grid.Neighbor(router, w.out.Dir)
	if !ok {
		panic(fmt.Sprintf("vcnet: allocated output %v at node %d has no channel", w.out, router))
	}
	nb := n.bufID(next, w.out.Dir, w.out.VC)
	if n.occupied[nb] {
		return false, false
	}
	if !n.stamp(n.stampOf[nb]) {
		return false, true
	}
	w.path = append(w.path, nb)
	w.pkt.Hops++
	w.headerArrival = cycle
	w.inDir = w.out.Dir
	w.inVC = w.out.VC
	w.headRouter = next
	w.routed = false
	w.candsValid = false
	if w.candsMis {
		// The hop came from a misroute fallback set: charge the packet's
		// budget and the network-wide counter.
		w.misroutes++
		c.MisrouteHops++
		w.candsMis = false
	}
	n.enlist(w)
	return true, false
}

// tailLeft handles the tail flit of w leaving path[p]. Unless it was
// consumed, it crossed the channel into path[p+1], the last of the packet's
// flits to do so, so that channel is released and its flits are reported; the
// buffer it left may be what a header granted the channel feeding it waits
// for, so that header is woken; and when the buffer is the injection buffer,
// the source may inject again.
func (n *Network) tailLeft(w *worm, p int) {
	if p+1 < len(w.path) {
		from, to := w.path[p], w.path[p+1]
		n.release(n.feederKey(from, to), n.bufRouter(from))
		n.core.Em.FlitMove(n.core.Cycle, n.bufRouter(from), topology.Direction(n.portDir[to]), w.pkt.Length)
	}
	if p == 0 {
		n.core.WakeSource(w.pkt.Src)
	} else if x := n.owner[n.feederKey(w.path[p-1], w.path[p])]; x != nil {
		n.wakeWorm(x)
	}
}
