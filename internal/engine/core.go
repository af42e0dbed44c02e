// Package engine is the shared core of the two flit-level simulators:
// internal/network (physical channels, worms advance as units) and
// internal/vcnet (virtual channels sharing each physical channel's
// bandwidth, worms advance as runs of flits that split where a flit is
// refused it). Both engines step through the same per-cycle skeleton —
// fault transitions, source injection, routing + output allocation,
// movement, retirement — and this package owns everything in that skeleton
// that does not depend on the channel model:
//
//   - Grid: flat integer neighbor/wraparound tables replacing interface
//     lookups in the hot loops;
//   - Core: source queues, retry backoff, the injection worklist (only
//     nodes with queued work are visited, so idle routers cost nothing),
//     fault plan wiring, delivery/abort/drop accounting, and the deadlock
//     watchdog;
//   - Emitter: batched probe event emission that keeps the no-probe step
//     paths allocation-free.
//
// The split is semantics-preserving by construction: the engines drive the
// same phases in the same order with the same tie-breaking, which the
// differential harness in diff_test.go checks end to end.
package engine

import (
	"math"
	"reflect"
	"slices"

	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/topology"
)

// Config configures a Core. It is the engine-independent subset of the
// simulators' Config structs.
type Config struct {
	Topo topology.Topology
	// WatchdogCycles is how long the network may go without progress
	// while packets are in flight before the watchdog fires. 0 selects
	// the default (10000); negative disables.
	WatchdogCycles int64
	// Faults is shorthand for FaultPlan.Static; the two lists are merged.
	Faults    []topology.Channel
	FaultPlan fault.Plan
	// Recovery enables deadlock recovery (abort + source retry).
	Recovery fault.Recovery
	// FaultRouting enables in-network fault masking; ignored when the
	// fault plan is empty.
	FaultRouting fault.RoutingPolicy
	// Probe receives simulation events; nil disables instrumentation.
	Probe metrics.Probe
	// DisableEventSkip turns off event-driven cycle skipping: with it set,
	// EndStep never leaps the clock even when the caller has promised an
	// injection horizon (see SetInjectionHorizon), so every cycle is
	// stepped individually. The default (false) keeps skipping available;
	// it is an execution strategy, not a model change — results are
	// bit-identical either way — so it never enters cache keys.
	DisableEventSkip bool
}

// retryEntry is one aborted packet waiting at its source to reinject at
// cycle `at`.
type retryEntry struct {
	p  *Packet
	at int64
}

// Core is the engine-independent simulator state. The embedding engine
// wires the four hooks after NewCore and then drives FaultPhase,
// InjectPhase and EndStep from its Step loop.
type Core struct {
	Topo topology.Topology
	Grid *Grid

	// Cycle is the current simulation time.
	Cycle int64

	// Faults drives the dynamic fault plan; nil when the plan is empty.
	// Faulted aliases Faults.Faulted when non-nil (so transitions are
	// visible with a single load), and is a zero bitmap otherwise; it is
	// keyed by Grid.Key.
	Faults  *fault.State
	Faulted []bool
	// Health is the per-node fault visibility map of fault-aware routing;
	// nil unless Config.FaultRouting was enabled and the plan non-empty.
	// FaultPol is the policy with defaults applied (valid when Health is
	// non-nil); the engine builds its masked algorithm from the pair.
	Health   *fault.Health
	FaultPol fault.RoutingPolicy

	Recovery fault.Recovery
	Watchdog int64

	// Em batches probe events; its methods no-op without a probe.
	Em Emitter

	// Counters. NextID numbers packets in enqueue order; the rest are the
	// totals the simulators expose.
	NextID         int64
	FlitsConsumed  int64
	PacketsDone    int64
	PacketsAborted int64
	PacketsRetried int64
	PacketsDropped int64
	MisrouteHops   int64

	// Reachability-BFS scratch for the engines' reachable() queries
	// (recovery mode only): stamped visited marks reused across queries.
	ReachSeen  []int32
	ReachQueue []int32
	ReachStamp int32

	// Hooks, set by the engine once after NewCore. InjFree reports
	// whether the node's injection buffer is free; InjPlace creates the
	// engine's worm for a packet whose header enters that buffer.
	// Reachable answers the post-abort retry feasibility query.
	// OnEpochChange fires when the fault set's epoch advances (the engine
	// invalidates cached candidate sets of waiting headers and wakes them).
	InjFree       func(node topology.NodeID) bool
	InjPlace      func(node topology.NodeID, p *Packet)
	Reachable     func(src, dst topology.NodeID) bool
	OnEpochChange func()

	// spare holds the fault state and health view the core built, in use
	// or not (Faults and Health are nil while the configuration has no
	// use for them), so that Reset reuses them instead of building anew.
	spare struct {
		faults *fault.State
		health *fault.Health
	}

	// queues are the per-node source queues (FIFO); queued counts the
	// packets across all of them (O(1) InFlight).
	queues []sourceQueue
	queued int
	// slab is what is left of the chunk Enqueue takes packets from.
	slab []Packet

	// retries holds aborted packets waiting out their backoff at the
	// source (per node); nil unless recovery is enabled.
	retries    [][]retryEntry
	retryCount int

	// pending is the injection worklist: the nodes holding retry entries
	// and the nodes with queued packets whose injection buffer may be free,
	// each at most once (inPending is the membership bitmap). A node whose
	// queue waits behind an occupied injection buffer is not on it — neither
	// Enqueue nor InjectPhase leaves it there — and the engine calls
	// WakeSource when that buffer is vacated. The list is put
	// in ascending node order at injection time so the visit order — and
	// with it every probe event and arbitration outcome — matches the full
	// scan it replaces.
	pending   []int32
	inPending []bool

	faultEpoch   int64
	lastProgress int64

	// Event clock (see EndStep): horizon is the caller's promise that no
	// Enqueue will happen at a cycle strictly before it (0: no promise, so
	// no skipping); skipDisabled is Config.DisableEventSkip; skipped and
	// leaps count the cycles leaped over and the leaps taken.
	horizon      int64
	skipDisabled bool
	skipped      int64
	leaps        int64
}

// NewCore builds the shared state for a topology and the engine-
// independent configuration.
func NewCore(cfg Config) Core {
	var c Core
	c.Reset(cfg)
	return c
}

// Reset makes the core the one NewCore(cfg) builds, in place, keeping the
// hooks the engine set and every table it can reuse: the Grid when the
// topology is the one it already has, the fault state and health view it
// built before (reset in place rather than rebuilt), the queues, worklist,
// retry lists and scratch. Only the rest of the last packet chunk carries
// over as such: packets nobody was ever handed, which the next Enqueue
// hands out as from a fresh chunk. Packets already handed out stay the
// caller's; nothing of theirs is reused. A core reset for a configuration
// on a topology it has held before allocates nothing.
func (c *Core) Reset(cfg Config) {
	topo := cfg.Topo
	if c.Grid == nil || !sameTopology(c.Topo, topo) {
		c.Grid = NewGrid(topo)
	}
	nodes, channels := topo.Nodes(), topo.Nodes()*c.Grid.Dims2
	c.Topo, c.Cycle = topo, 0
	c.Em.Reset(cfg.Probe)

	plan := cfg.FaultPlan
	if len(cfg.Faults) > 0 {
		plan.Static = append(append([]topology.Channel(nil), plan.Static...), cfg.Faults...)
	}
	c.Faults, c.Health, c.FaultPol = nil, nil, fault.RoutingPolicy{}
	if plan.Empty() {
		// A zero bitmap. It may be the spare fault state's: nothing writes
		// that while the state is out of use, and its Reset clears it.
		c.Faulted = slices.Grow(c.Faulted[:0], channels)[:channels]
		clear(c.Faulted)
	} else {
		if c.spare.faults == nil {
			c.spare.faults = fault.MustNew(plan, topo)
		} else if err := c.spare.faults.Reset(plan, topo); err != nil {
			panic(err.Error())
		}
		c.Faults, c.Faulted = c.spare.faults, c.spare.faults.Faulted
		if cfg.FaultRouting.Enabled() {
			c.FaultPol = cfg.FaultRouting.WithDefaults()
			if c.spare.health == nil {
				c.spare.health = fault.NewHealth(topo, c.Faults, c.FaultPol)
			} else {
				c.spare.health.Reset(topo, c.Faults, c.FaultPol)
			}
			c.Health = c.spare.health
		}
	}

	c.Recovery, c.retryCount = cfg.Recovery, 0
	if !c.Recovery.Enabled {
		c.retries = nil
	} else if c.Recovery = c.Recovery.WithDefaults(); len(c.retries) != nodes {
		c.retries = make([][]retryEntry, nodes)
	} else {
		for i, q := range c.retries {
			clear(q[:cap(q)])
			c.retries[i] = q[:0]
		}
	}
	c.queues = slices.Grow(c.queues[:0], nodes)[:nodes]
	clear(c.queues)
	c.queued = 0
	c.pending = c.pending[:0]
	c.inPending = slices.Grow(c.inPending[:0], nodes)[:nodes]
	clear(c.inPending)

	c.NextID, c.FlitsConsumed, c.PacketsDone = 0, 0, 0
	c.PacketsAborted, c.PacketsRetried, c.PacketsDropped, c.MisrouteHops = 0, 0, 0, 0
	clear(c.ReachSeen[:cap(c.ReachSeen)])
	c.ReachSeen, c.ReachQueue, c.ReachStamp = c.ReachSeen[:0], c.ReachQueue[:0], 0

	c.Watchdog = cfg.WatchdogCycles
	if c.Watchdog == 0 {
		c.Watchdog = 10000
	}
	c.faultEpoch, c.lastProgress = 0, 0
	c.horizon, c.skipDisabled, c.skipped, c.leaps = 0, cfg.DisableEventSkip, 0, 0
}

// sameTopology reports whether b is the very topology value a is. Values
// of a type == cannot compare, on which == would panic, are never the same.
func sameTopology(a, b topology.Topology) bool {
	return a != nil && reflect.TypeOf(a).Comparable() && a == b
}

// Bind finishes construction once the Core has its final address (the
// engines embed it by value): it routes fault transition events through
// the emitter. The engine sets the hooks alongside. A fault state that
// already reports to this core — one Reset kept — is left as it is.
func (c *Core) Bind() {
	if c.Faults != nil && c.Faults.OnChange == nil {
		c.Faults.OnChange = func(from topology.NodeID, dir topology.Direction, failed bool) {
			c.Em.Fault(c.Cycle, from, dir, failed)
		}
	}
}

// packetChunk is how many packets Enqueue allocates at a time.
const packetChunk = 256

// Enqueue creates a packet at the current cycle and queues it at src. The
// engines validate arguments (their panic messages carry the package name)
// before delegating here. A source whose injection buffer is occupied is
// not put on the injection worklist: the engine's WakeSource puts it there
// when the buffer is vacated.
//
// Packets are carved from chunks of packetChunk, so a message costs an
// allocation only once per chunk. They are never recycled: the caller keeps
// the *Packet returned here, and the one TakeDelivered hands back, for as
// long as it likes.
func (c *Core) Enqueue(src, dst topology.NodeID, length int) *Packet {
	if len(c.slab) == 0 {
		c.slab = make([]Packet, packetChunk)
	}
	p := &c.slab[0]
	c.slab = c.slab[1:]
	// The chunk is fresh, zeroed memory: only the nonzero fields are set.
	p.ID, p.Src, p.Dst, p.Length = c.NextID, src, dst, length
	p.Created, p.Injected, p.Arrived = c.Cycle, -1, -1
	c.NextID++
	c.queues[src].push(p)
	c.queued++
	if c.InjFree(src) {
		c.addPending(int32(src))
	}
	return p
}

// QueueLen reports how many generated messages wait at the node's source
// queue (not yet injecting).
func (c *Core) QueueLen(node topology.NodeID) int {
	return c.queues[node].n
}

// MaxQueueLen reports the longest current source queue.
func (c *Core) MaxQueueLen() int {
	max := 0
	for i := range c.queues {
		if l := c.queues[i].n; l > max {
			max = l
		}
	}
	return max
}

// Backlog counts queued plus retry-pending packets; the engine adds its
// active worm count for the InFlight total. O(1): the queue and retry
// populations are tracked incrementally.
func (c *Core) Backlog() int { return c.queued + c.retryCount }

// FaultEvents counts channel-break events applied so far, including static
// faults.
func (c *Core) FaultEvents() int64 {
	if c.Faults == nil {
		return 0
	}
	return c.Faults.FailEvents()
}

// ActiveFaults reports how many channels are currently broken.
func (c *Core) ActiveFaults() int {
	if c.Faults == nil {
		return 0
	}
	return c.Faults.ActiveFaults()
}

// addPending puts a node on the injection worklist (idempotent).
func (c *Core) addPending(node int32) {
	if !c.inPending[node] {
		c.inPending[node] = true
		c.pending = append(c.pending, node)
	}
}

// OnWorklist reports whether the node is on the injection worklist (the
// lost-wake oracles of the engines' tests ask).
func (c *Core) OnWorklist(node topology.NodeID) bool { return c.inPending[node] }

// WakeSource tells the core that the node's injection buffer was vacated:
// if messages wait in its source queue, the node goes back on the
// injection worklist it left when InjectPhase found the buffer occupied.
func (c *Core) WakeSource(node topology.NodeID) {
	if c.queues[node].n > 0 {
		c.addPending(int32(node))
	}
}

// holdsRetries reports whether aborted packets wait out their backoff at
// the node (due or not). Such a node stays on the worklist: the next
// thing it waits for is a cycle, not a buffer.
func (c *Core) holdsRetries(node int32) bool {
	return c.retries != nil && len(c.retries[node]) > 0
}

// sortPending restores ascending node order; each node appears at most
// once, so the order is total and the visit order identical to the full
// node scan this worklist replaces.
func (c *Core) sortPending() { slices.Sort(c.pending) }

// popRetry returns the first due retry packet at the node, or nil. Entries
// are scanned in abort order so an early abort with a long backoff does not
// block a later one with a short backoff.
func (c *Core) popRetry(node int32) *Packet {
	if c.retries == nil {
		return nil
	}
	q := c.retries[node]
	for i := range q {
		if q[i].at <= c.Cycle {
			p := q[i].p
			c.retries[node] = append(q[:i], q[i+1:]...)
			c.retryCount--
			return p
		}
	}
	return nil
}

// popQueue dequeues the node's oldest generated packet, or nil.
func (c *Core) popQueue(node int32) *Packet {
	p := c.queues[node].pop()
	if p != nil {
		c.queued--
	}
	return p
}

// sourceQueue is a source's FIFO of generated packets, a list threaded
// through the packets' own links: a queue costs no allocation and no dead
// storage however long a saturated source lets it grow.
type sourceQueue struct {
	head, tail *Packet
	n          int
}

func (q *sourceQueue) push(p *Packet) {
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
	q.n++
}

func (q *sourceQueue) pop() *Packet {
	p := q.head
	if p == nil {
		return nil
	}
	if q.head = p.next; q.head == nil {
		q.tail = nil
	}
	p.next = nil
	q.n--
	return p
}

// FaultPhase applies this cycle's channel breaks and repairs and refreshes
// the fault-visibility map; when the fault epoch advances it invokes the
// engine's OnEpochChange hook — with or without fault masking: a header
// refused only because its channel was broken sleeps until it is told of
// the repair, and masked candidate sets computed from the old set are
// stale.
func (c *Core) FaultPhase() {
	if c.Faults == nil {
		return
	}
	c.Faults.Advance(c.Cycle)
	if c.Health != nil {
		c.Health.Refresh()
	}
	if e := c.Faults.Epoch(); e != c.faultEpoch {
		c.faultEpoch = e
		c.OnEpochChange()
	}
}

// InjectPhase runs source injection over the pending worklist: for each
// node on it, in ascending node order, due retries then fresh messages
// enter the injection buffer while it is free; packets whose destination
// the fault set has cut off entirely are dropped without entering the
// network. A visited node then leaves the worklist unless it holds retry
// entries: either it has nothing left to send, or what is left waits for
// the injection buffer — occupied when the visit found it so or by the worm
// just placed — and WakeSource brings the node back when the buffer is
// vacated. The cost is the nodes that can inject, not the nodes that want
// to. It reports whether anything happened (progress).
func (c *Core) InjectPhase() bool {
	if len(c.pending) == 0 {
		return false
	}
	c.sortPending()
	progress := false
	out := c.pending[:0]
	for _, nd := range c.pending {
		node := topology.NodeID(nd)
		if c.InjFree(node) {
			for {
				p := c.popRetry(nd)
				if p == nil {
					if p = c.popQueue(nd); p == nil {
						break
					}
				}
				if c.Recovery.Enabled && c.Faults != nil && c.Faults.ActiveFaults() > 0 &&
					c.CutOff(node, p.Dst) {
					c.DropPacket(p, metrics.DropUnreachable)
					progress = true
					continue // the injection buffer is still free; try the next
				}
				p.Injected = c.Cycle
				c.InjPlace(node, p)
				progress = true
				c.Em.Inject(c.Cycle, p.Src, p.Dst, p.Length)
				break
			}
		}
		if c.holdsRetries(nd) {
			out = append(out, nd)
		} else {
			c.inPending[nd] = false
		}
	}
	c.pending = out
	return progress
}

// FinishAbort is the engine-independent tail of a worm abort, after the
// engine has drained the worm's flits and released its buffers and
// channels: accounting, then retry with backoff or drop.
func (c *Core) FinishAbort(p *Packet) {
	p.Injected = -1
	p.Hops = 0
	p.Aborts++
	c.PacketsAborted++
	c.Em.Abort(c.Cycle, p.Src, p.Dst, p.Length, p.Aborts)
	if c.Recovery.MaxRetries >= 0 && p.Aborts > c.Recovery.MaxRetries {
		c.DropPacket(p, metrics.DropRetriesExhausted)
		return
	}
	if !c.Reachable(p.Src, p.Dst) {
		c.DropPacket(p, metrics.DropUnreachable)
		return
	}
	delay := c.Recovery.Backoff(p.Aborts)
	c.retries[p.Src] = append(c.retries[p.Src], retryEntry{p: p, at: c.Cycle + delay})
	c.retryCount++
	c.addPending(int32(p.Src))
	c.PacketsRetried++
	c.Em.Retry(c.Cycle, p.Src, p.Dst, p.Aborts, delay)
}

// DropPacket abandons a packet: it leaves the in-flight population for
// good.
func (c *Core) DropPacket(p *Packet, reason metrics.DropReason) {
	c.PacketsDropped++
	c.Em.Drop(c.Cycle, p.Src, p.Dst, p.Length, reason)
}

// CutOff is the cheap injection-time unreachability check: the source has
// no live outgoing channel, or the destination no live incoming one. It
// catches failed-node destinations outright; subtler routing-restricted
// unreachability is caught by the engine's full BFS when the packet is
// aborted.
func (c *Core) CutOff(src, dst topology.NodeID) bool {
	g := c.Grid
	srcCut, dstCut := true, true
	for d := 0; d < g.Dims2; d++ {
		dir := topology.Direction(d)
		if nb, ok := g.Neighbor(src, dir); ok && nb != src {
			if !c.Faulted[int(src)*g.Dims2+d] {
				srcCut = false
			}
		}
		if nb, ok := g.Neighbor(dst, dir); ok && nb != dst {
			if back, ok2 := g.Neighbor(nb, dir.Opposite()); ok2 && back == dst &&
				!c.Faulted[int(nb)*g.Dims2+int(dir.Opposite())] {
				dstCut = false
			}
		}
		if !srcCut && !dstCut {
			return false
		}
	}
	return true
}

// SetInjectionHorizon records the caller's promise that no Enqueue will
// happen at a cycle strictly before the given one. The promise is what
// makes event-driven cycle skipping sound: when the network holds no worm
// and no queued packet, every cycle before the horizon is provably empty
// except for retry-backoff expiries and scheduled fault transitions, whose
// times the core knows, so EndStep may leap the clock over them (see the
// event-clock section of docs/performance.md). Passing a cycle at or
// before the current one (0 included) withdraws the promise and disables
// skipping until a new horizon is set. The caller may raise, lower or
// clear the horizon between any two steps; it must simply never Enqueue
// earlier than the last promise still in force when a Step runs.
func (c *Core) SetInjectionHorizon(cycle int64) { c.horizon = cycle }

// CyclesSkipped reports how many cycles the event clock has leaped over
// instead of stepping, and Leaps how many leaps did it. Skipped cycles are
// charged to probes and the watchdog exactly as if they had been stepped,
// so the counters are pure execution telemetry: they never affect results.
func (c *Core) CyclesSkipped() int64 { return c.skipped }

// Leaps reports how many clock leaps CyclesSkipped accumulated over.
func (c *Core) Leaps() int64 { return c.leaps }

// EndStep closes the cycle: it flushes batched probe events, advances the
// clock and evaluates the deadlock watchdog. active is the engine's
// in-network worm count; the return value reports whether the watchdog
// fired (never under recovery, which aborts stuck worms per-worm instead).
//
// When the network is provably idle — no active worm and no queued packet
// — and the caller has promised an injection horizon, EndStep then leaps
// the clock toward the horizon (see leap), making idle cycles cost O(1)
// instead of one no-op step each.
func (c *Core) EndStep(progress bool, active int) bool {
	c.Em.Tick(c.Cycle)
	c.Cycle++
	if progress {
		c.lastProgress = c.Cycle
	} else if !c.Recovery.Enabled {
		// Recovery mode never fail-stops: stuck worms are aborted by the
		// per-worm timeout, and a quiet network with packets only waiting
		// out retry backoff is making (delayed) progress.
		if c.Watchdog > 0 && active+c.queued+c.retryCount > 0 && c.Cycle-c.lastProgress >= c.Watchdog {
			return true
		}
	}
	if active == 0 && c.queued == 0 && !c.skipDisabled && c.horizon > c.Cycle {
		c.leap()
	}
	return false
}

// leap advances the clock over cycles a stepped run would spend doing
// nothing observable. It may only be called when the network is idle (no
// active worm, no queued packet): a stepped run of such a cycle applies no
// fault transition before the next scheduled one, injects nothing before
// the earliest retry expiry or the caller's injection horizon, moves no
// flit, and cannot fire the watchdog (without recovery an idle network has
// nothing in flight; with it the watchdog never fires) — its only
// observable act is the end-of-cycle probe Tick. The leap target is
// therefore the minimum of the injection horizon, the earliest pending
// retry expiry and the next scheduled fault transition; every skipped
// cycle's Tick is forwarded to the probe so collectors see the identical
// event stream, and the clock lands exactly on the first cycle where
// something can happen, which then runs as a full step. Results are
// bit-identical to stepping every cycle.
func (c *Core) leap() {
	target := c.horizon
	if c.retryCount > 0 {
		if at := c.nextRetryAt(); at < target {
			target = at
		}
	}
	if c.Faults != nil {
		if at := c.Faults.NextEventCycle(); at < target {
			target = at
		}
	}
	if target <= c.Cycle {
		return
	}
	c.Em.TickEmpty(c.Cycle, target-c.Cycle)
	c.skipped += target - c.Cycle
	c.leaps++
	c.Cycle = target
}

// nextRetryAt scans the pending worklist for the earliest retry-backoff
// expiry. Every node holding retry entries is on the worklist (FinishAbort
// puts it there and InjectPhase keeps such nodes), so the scan is complete;
// it runs only on idle networks, where the worklist holds exactly the
// retry-waiting nodes. At leap time every entry is in the future: a due
// entry would have been injected (or dropped) by this step's InjectPhase,
// making the network non-idle.
func (c *Core) nextRetryAt() int64 {
	at := int64(math.MaxInt64)
	for _, nd := range c.pending {
		for i := range c.retries[nd] {
			if e := c.retries[nd][i].at; e < at {
				at = e
			}
		}
	}
	return at
}

// Deadlock builds the watchdog's error value.
func (c *Core) Deadlock(active int, stuck []*Packet) *DeadlockError {
	return &DeadlockError{Cycle: c.Cycle, InFlight: active + c.queued + c.retryCount, Stuck: stuck}
}
