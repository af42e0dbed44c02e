package network

import (
	"turnmodel/internal/engine"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// Spatial domains. The node space is one domain, or — with Config.Shards >
// 1 — that many contiguous node ranges (engine.Core owns the bounds and the
// worker pool), and the phases of Step that fan out run one task per
// domain: on one pool worker each when sharded, one after the other when
// not. Either way they are the same tasks over the same per-domain lists,
// so there is one movement algorithm, the persistent state (draining lists,
// timers, awake routers, injection worklist, free lists) means the same
// thing in both modes, and a network Closed in mid-run carries on serially
// from exactly where its workers stopped. The acceptance bar is
// bit-identical results at every shard count; the full argument lives in
// docs/performance.md, the short form next to each task below. The
// differential harness (internal/engine/shard_diff_test.go) and the
// cross-shard tests in this package check it end to end.
//
// A worm is moved by whichever domain has it on a list: the domain whose
// router granted it or marked it arrived, or the domain whose move vacated
// the buffer it was stalled on. Its flits may lie anywhere — that is fine,
// because buffer and channel writes during movement are exclusive to the
// worm (not to the domain), and whatever a move does to state another
// domain owns goes through the mover's sink instead.

// netDomain is one domain's lists. draining and the two timers persist from
// cycle to cycle; ready lives from phase 0 (worms woken by aborts) and phase
// 2 (worms granted a free buffer) to the movement round that drains it; the
// rest is the domain's sink, filled by the moves its task makes in one round
// and emptied by settle (fold) at the round's barrier. Everything is reused,
// keeping the no-probe step allocation-free. Padded against false sharing.
type netDomain struct {
	// lo and hi bound the domain's routers: the node range [lo, hi).
	lo, hi int32

	// draining holds the worms whose header reached one of the domain's
	// routers as its destination and whose tail is moving: each delivers a
	// flit, vacates a buffer and releases a channel per cycle. sleepers holds
	// the arrived worms whose source is still sending, each until the cycle
	// it sends its last flit (worm.wakeAt): one flit in, one flit out, and
	// nothing for anybody else to see, so the domain delivers their flits by
	// counting them (see drainDomain).
	draining []*worm
	sleepers engine.Timers[*worm]
	// stalls holds recovery's stall timeouts for the worms the domain
	// injected, one per worm that has not arrived (see recoveryPhase).
	stalls engine.Timers[stall]
	// ready holds the worms that can advance in the coming movement round:
	// granted an output whose target buffer is free.
	ready []*worm

	// The sink. woken: worms whose target buffer a move of this round
	// vacated — the next round's ready worms. released: other domains'
	// routers one of whose output channels was released, to be woken in
	// the wait table. sources: nodes whose injection buffer was vacated.
	// finished: worms that delivered their last flit. foreign: worms whose
	// header this domain moved under another domain's router, to be
	// enlisted there.
	woken    []*worm
	released []int32
	sources  []int32
	finished []*worm
	foreign  []*worm
	flits    int64
	mis      int64
	moved    bool

	// injected holds the worms the domain's pool worker injected this
	// cycle, until mergeInjected appends them to the active list; free is
	// the domain's stock of recycled worms (see newWorm).
	injected []*worm
	free     []*worm
	// masked is the domain's fault-masking wrapper, nil unless masking is
	// on: the wrapper's counters are not concurrent-safe, so each domain
	// arbitrates through its own over the shared read-only Health.
	masked *routing.FaultAware
	_      [64]byte
}

// stall is one stall-timeout entry: the worm and the ID of the packet it
// carried when the timer was armed. Worms are reused, so an entry that
// outlived its worm's packet is told by the ID.
type stall struct {
	w  *worm
	id int64
}

// initDomains builds the domains inside New. The core has already clamped
// the shard count; stepping on the pool additionally requires the inlined
// LowestDimension output arbitration — any other policy draws from a shared
// RNG stream or closure state whose order concurrent domains would change,
// so those configurations release the pool and step serially, as one
// domain.
func (n *Network) initDomains() {
	if n.core.ShardCount() > 1 && !n.fastOutput {
		n.core.Close()
	}
	n.shards = n.core.ShardCount()
	n.dom = make([]netDomain, n.shards)
	for d := range n.dom {
		n.dom[d].lo, n.dom[d].hi = 0, int32(n.topo.Nodes())
		if n.shards > 1 {
			n.dom[d].lo, n.dom[d].hi = n.core.ShardRange(d)
		}
		if n.core.Health != nil {
			n.dom[d].masked = routing.NewFaultAware(n.alg, n.core.Health, n.core.FaultPol)
		}
	}
	n.core.InjPlaceShard = n.placeWormShard
	n.arbitrateFn = n.arbitrate
	n.drainFn = n.drainDomain
	n.moveFn = n.moveDomain
}

// Close releases the worker pool and leaves the network stepping serially
// over the same domains; idempotent and a no-op for serial networks. The
// pool also has a finalizer, so an un-Closed network leaks nothing once
// collected — Close just makes the release deterministic (the sweep runner
// closes each point's network as it finishes).
func (n *Network) Close() {
	n.core.Close()
	n.shards = 1
}

// eachDomain runs a phase's task for every domain: on the worker pool (a
// barrier) when sharded, in domain order otherwise.
func (n *Network) eachDomain(task func(d int)) {
	if n.shards > 1 {
		n.core.RunShards(task)
		return
	}
	for d := range n.dom {
		task(d)
	}
}

// owns reports whether a task of the domain may touch the router's entry in
// the wait table — its run of waiters and its bit in the awake set — itself.
// While domains run concurrently that takes the router's own domain; the
// others leave the router in their sink for settle.
func (n *Network) owns(dm *netDomain, router int32) bool {
	return n.shards <= 1 || dm.lo <= router && router < dm.hi
}

// release records that an output channel of the router was released: the
// headers refused there are offered again next cycle.
func (n *Network) release(router int32, dm *netDomain) {
	if n.owns(dm, router) {
		n.wait.Wake(router)
	} else {
		dm.released = append(dm.released, router)
	}
}

// emitter is where domain d's tasks record probe events: the domain's own
// buffer while domains run concurrently — settle absorbs the buffers in
// domain order — and the core's directly otherwise.
func (n *Network) emitter(d int) *engine.Emitter {
	if n.shards > 1 {
		return n.core.ShardEmitter(d)
	}
	return &n.core.Em
}

// placeWormShard is the core's sharded injection hook: identical to
// placeWorm except that the worm is appended to the domain's injected list
// instead of the shared active list, and comes off the domain's own free
// list. The buffer write and the wait-table entry are at the injecting
// node, which belongs to this domain.
func (n *Network) placeWormShard(d int, node topology.NodeID, p *Packet) {
	n.dom[d].injected = append(n.dom[d].injected, n.newWorm(d, node, p))
}

// mergeInjected appends the worms the pool workers injected to the active
// list in domain order, which is the serial order: injection visits nodes
// in ascending order and domains are ascending node ranges.
func (n *Network) mergeInjected() {
	for d := range n.dom {
		dm := &n.dom[d]
		for _, w := range dm.injected {
			n.active.pushBack(w)
		}
		clear(dm.injected)
		dm.injected = dm.injected[:0]
	}
}

// drainDomain is the first movement round of a cycle for one domain: every
// arrived worm delivers a flit, then the ready worms advance (moveDomain).
//
// The sleepers deliver theirs without being touched: the domain adds their
// number to its flit tally, which keeps FlitsConsumed exact at every cycle
// boundary and shows the watchdog the progress. A sleeper that arbitrate put
// on the timer in cycle a with q flits still to be sent is counted in cycles
// a to a+q-1 and comes off the timer here in cycle a+q, credited with those q
// flits in one addition and fully injected; from then on it is a draining
// worm, whose every advance shifts its tail. In what order the woken worms
// join the draining list changes nothing that outlives the cycle: each
// advance writes only its own worm's buffers and channels, the wakes reach
// the same fixpoint, headers are filed in the wait table by key, and the
// finished are retired in injection order. Sleeping emits no probe event
// either — FlitMove fires at a channel release, Deliver at retirement — so
// probe streams are untouched. A worm that delivered its last flit leaves the
// draining list for the sink.
func (n *Network) drainDomain(d int) {
	dm := &n.dom[d]
	for {
		w, ok := dm.sleepers.PopDue(n.core.Cycle)
		if !ok {
			break
		}
		w.delivered += w.pkt.Length - w.sent
		w.sent = w.pkt.Length
		w.wakeAt = 0
		dm.draining = append(dm.draining, w)
	}
	if asleep := dm.sleepers.Len(); asleep > 0 {
		dm.flits += int64(asleep)
		dm.moved = true
	}
	if len(dm.draining) > 0 {
		em := n.emitter(d)
		keep := dm.draining[:0]
		for _, w := range dm.draining {
			n.advance(w, dm, em)
			if w.delivered < w.pkt.Length {
				keep = append(keep, w)
			}
		}
		clear(dm.draining[len(keep):])
		dm.draining = keep
		dm.moved = true
	}
	n.moveDomain(d)
}

// moveDomain is one movement round for one domain: each of its ready worms
// advances one hop. Every one of them can — its target buffer was free when
// it was listed and only the worm itself can fill it — so the round needs
// no look at anybody else's state, and the worms it wakes go to the next
// round rather than this one only because another domain may have to move
// them. A header that hopped starts waiting at its new router: this task
// enlists it there only if the router is its own — the wait table's lists
// and bitmap words belong to the router's domain — and otherwise leaves it
// to settle (nothing reads the table during movement, and entries are filed
// in order on insertion, so when and in what order they land is
// immaterial).
func (n *Network) moveDomain(d int) {
	dm := &n.dom[d]
	if len(dm.ready) == 0 {
		return
	}
	em := n.emitter(d)
	for _, w := range dm.ready {
		if !n.advance(w, dm, em) {
			continue
		}
		if n.owns(dm, int32(w.headRouter)) {
			n.enlist(w)
		} else {
			dm.foreign = append(dm.foreign, w)
		}
	}
	clear(dm.ready)
	dm.ready = dm.ready[:0]
	dm.moved = true
}

// settle is the serial end of a movement round: it folds the sink of every
// domain that moved something into the shared state, in domain order, and
// reports whether the round moved anything and whether it woke anybody —
// whether another round is due.
//
// Only the interleaving of a cycle's FlitMove probe events depends on how
// the worms were spread over rounds and domains (it is deterministic for a
// fixed shard count); per-cycle aggregation, which is all the metrics
// collector does, sees identical streams.
func (n *Network) settle() (moved, more bool) {
	for d := range n.dom {
		dm := &n.dom[d]
		if !dm.moved {
			continue
		}
		dm.moved, moved = false, true
		n.fold(dm)
		more = more || len(dm.ready) > 0
	}
	if moved && n.shards > 1 {
		n.core.AbsorbShardEmitters()
	}
	return moved, more
}

// fold empties one domain's sink into the shared state — the tallies, its
// foreign headers into the wait table, the foreign routers it released woken
// there, the sources it vacated back on the injection worklist, the worms
// it finished to retirePhase — and makes the worms it woke its ready worms
// (its ready list is empty: the round, or the previous cycle, drained it).
func (n *Network) fold(dm *netDomain) {
	c := &n.core
	c.FlitsConsumed += dm.flits
	c.MisrouteHops += dm.mis
	dm.flits, dm.mis = 0, 0
	for _, w := range dm.foreign {
		n.enlist(w)
	}
	clear(dm.foreign)
	dm.foreign = dm.foreign[:0]
	for _, r := range dm.released {
		n.wait.Wake(r)
	}
	dm.released = dm.released[:0]
	for _, node := range dm.sources {
		c.WakeSource(topology.NodeID(node))
	}
	dm.sources = dm.sources[:0]
	if len(dm.finished) > 0 {
		n.finished = append(n.finished, dm.finished...)
		clear(dm.finished)
		dm.finished = dm.finished[:0]
	}
	dm.ready, dm.woken = dm.woken, dm.ready
}
