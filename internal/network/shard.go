package network

import (
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// Sharded stepping: Config.Shards > 1 partitions the node space into
// contiguous domains (engine.Core owns the bounds and the worker pool) and
// runs the parallelizable phases of Step on one worker per domain. The
// acceptance bar is bit-identical results at every shard count; the full
// argument lives in docs/performance.md, the short form next to each phase
// below. The differential harness (internal/engine/diff_test.go) and the
// cross-shard tests in this package check it end to end.
//
// A worm belongs to the domain of its head router at the start of the
// phase. Its flits may trail through other domains' nodes — that is fine,
// because buffer and channel writes during movement are exclusive to the
// worm (not to the domain), and the phases that consult another router's
// state are either read-only at that point or serial.

// netDomain is one domain's per-cycle scratch: the worms it owns this
// cycle, its mover list, the worms it injected this cycle (merged into the
// active list in domain order), the worms whose headers it moved under
// another domain's router (enlisted there after the movement barrier), its
// fault-masking wrapper (the wrapper's counters are not concurrent-safe,
// so each domain gets its own over the shared read-only Health), and its
// counter deltas. Everything is preallocated or reused, keeping the
// no-probe sharded step allocation-free. Padded against false sharing of
// the counters.
type netDomain struct {
	owned    []*worm
	movers   []*worm
	injected []*worm
	foreign  []*worm
	masked   *routing.FaultAware
	flits    int64
	mis      int64
	_        [64]byte
}

// initShardDomains finishes sharded-step construction inside New. The core
// has already clamped the shard count; sharding additionally requires the
// inlined LowestDimension output arbitration — any other policy draws from
// a shared RNG stream or closure state whose order sharding would change,
// so those configurations release the pool and fall back to serial
// stepping.
func (n *Network) initShardDomains(cfg Config) {
	if n.core.ShardCount() > 1 && !n.fastOutput {
		n.core.Close()
	}
	n.shards = n.core.ShardCount()
	if n.shards <= 1 {
		return
	}
	n.dsc = make([]netDomain, n.shards)
	for d := range n.dsc {
		dm := &n.dsc[d]
		if n.core.Health != nil {
			dm.masked = routing.NewFaultAware(n.alg, n.core.Health, n.core.FaultPol)
		}
	}
	n.core.InjPlaceShard = n.placeWormShard
	n.classifyFn = n.classifyDomain
	n.planFn = n.planDomain
	n.applyFn = n.applyDomain
}

// Close releases the sharded step's worker pool and returns the network to
// serial stepping; idempotent and a no-op for serial networks. The pool
// also has a finalizer, so an un-Closed network leaks nothing once
// collected — Close just makes the release deterministic (the sweep runner
// closes each point's network as it finishes).
func (n *Network) Close() {
	n.core.Close()
	n.shards = 1
}

// placeWormShard is the core's sharded injection hook: identical to
// placeWorm except that the worm is appended to the domain's injected list
// instead of the shared active list; stepSharded merges the lists in
// domain order, which reproduces the serial active-list order because
// injection visits nodes in ascending order and domains are ascending node
// ranges. The buffer write and the wait-table entry are at the injecting
// node, which belongs to this domain.
func (n *Network) placeWormShard(d int, node topology.NodeID, p *Packet) {
	n.dsc[d].injected = append(n.dsc[d].injected, n.newWorm(node, p))
}

// classifyDomain is the parallel body of phase 2 for one domain: collect
// the worms whose head router lies in the domain's node range (the movement
// rounds plan over them), then arbitrate the domain's part of the wait
// table.
//
// Serial equivalence: the serial step walks the table's parts in domain
// order, and a part holds exactly the waiters at the domain's routers — so
// the domains together visit every waiter the serial pass visits, each
// router's in the same order. An offer only reads and writes arbitration
// state at the waiter's own head router (outOwner, faulted, the router's
// run of waiters and the part's bitmap words), which no other domain
// touches in this phase, so every router's arbitration has exactly the
// serial outcome. Blocked events go to the domain emitter and merge in
// domain order, again the serial order.
func (n *Network) classifyDomain(d int) {
	c := &n.core
	dm := &n.dsc[d]
	lo, hi := c.ShardRange(d)
	dm.owned = dm.owned[:0]
	for _, w := range n.active {
		if r := int32(w.headRouter); r >= lo && r < hi {
			dm.owned = append(dm.owned, w)
		}
	}
	n.arbitrate(d, dm.masked, c.ShardEmitter(d))
}

// planDomain is the read-only half of one movement round: it collects the
// domain's worms that can advance under the state frozen at the round's
// barrier. No mover invalidates another (see canAdvance), so the plan is
// exactly the set of moves the round applies.
func (n *Network) planDomain(d int) {
	dm := &n.dsc[d]
	dm.movers = dm.movers[:0]
	for _, w := range dm.owned {
		if w.movedAt != n.core.Cycle && n.canAdvance(w) {
			dm.movers = append(dm.movers, w)
		}
	}
}

// applyDomain applies one movement round's planned moves for the domain.
// All writes are exclusive to each moving worm (see applyAdvance), so
// domains apply concurrently; counter deltas and FlitMove events land in
// the domain's sinks and merge after the movement loop. A header that
// hopped starts waiting at its new router: this worker enlists it there
// only if the router is its own — the wait table's lists and bitmap words
// belong to the router's domain — and otherwise parks the worm on the
// foreign list, which stepSharded enlists serially after the last round
// (nothing reads the table during movement, and entries are filed in order
// on insertion, so when and in what order they land is immaterial).
func (n *Network) applyDomain(d int) {
	c := &n.core
	dm := &n.dsc[d]
	em := c.ShardEmitter(d)
	lo, hi := c.ShardRange(d)
	for _, w := range dm.movers {
		if !n.applyAdvance(w, em, &dm.flits, &dm.mis) {
			continue
		}
		if r := int32(w.headRouter); r >= lo && r < hi {
			n.enlist(w)
		} else {
			dm.foreign = append(dm.foreign, w)
		}
	}
}

// stepSharded is Step's domain-decomposed body. Phases 0 (faults,
// recovery) and 4 (retirement, watchdog) are inherently order-dependent
// and stay serial; injection, routing/allocation and movement fan out over
// the domains with barriers between phases.
//
// Movement runs as rounds of plan (read-only, collect movers) and apply
// (disjoint writes) instead of the serial sweep-to-fixpoint loop. Both
// compute the same least fixpoint: a move never blocks another possible
// move this cycle (target buffers are exclusively granted) and frees only
// enable, so the set of worms that advance — and therefore every buffer,
// channel and counter after the phase — is identical to the serial
// schedule's. Only the intra-cycle interleaving of FlitMove probe events
// differs from serial (it is still deterministic for a fixed shard count);
// per-cycle aggregation, which is all the metrics collector does, sees
// identical streams.
func (n *Network) stepSharded() error {
	c := &n.core
	progress := false

	// Phase 0: fault transitions and deadlock recovery (serial).
	c.FaultPhase()
	if c.Recovery.Enabled {
		n.recoveryPhase()
	}

	// Phase 1: injection over the core's worklist, fanned out across the
	// domains by the core; the worms each domain created are appended in
	// domain order, reproducing the serial ascending-node active order.
	if c.InjectPhase() {
		progress = true
	}
	for d := range n.dsc {
		dm := &n.dsc[d]
		n.active = append(n.active, dm.injected...)
		for i := range dm.injected {
			dm.injected[i] = nil
		}
		dm.injected = dm.injected[:0]
	}

	// Phase 2: routing and output allocation, one task per domain.
	c.RunShards(n.classifyFn)
	c.AbsorbShardEmitters()

	// Phase 3: movement rounds to the fixpoint.
	for {
		c.RunShards(n.planFn)
		total := 0
		for d := range n.dsc {
			total += len(n.dsc[d].movers)
		}
		if total == 0 {
			break
		}
		progress = true
		c.RunShards(n.applyFn)
	}
	c.AbsorbShardEmitters()
	for d := range n.dsc {
		dm := &n.dsc[d]
		c.FlitsConsumed += dm.flits
		c.MisrouteHops += dm.mis
		dm.flits, dm.mis = 0, 0
		for i, w := range dm.foreign {
			n.enlist(w)
			dm.foreign[i] = nil
		}
		dm.foreign = dm.foreign[:0]
	}

	// Phase 4: retire completed worms, then close the cycle (serial).
	n.retirePhase()
	return n.finishStep(progress)
}
