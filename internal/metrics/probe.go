// Package metrics is the in-simulator observability layer: a Probe
// interface the flit-level simulators (internal/network, internal/vcnet)
// emit events into, and stdlib-only collectors that turn those events into
// per-channel utilization, blocked-cycle counters, log-bucketed latency
// histograms and a warmup occupancy trace.
//
// The layer is zero-cost when off: every emission site in the simulators is
// nil-guarded, so a nil probe adds one predictable branch and no
// allocations to the hot loops (enforced by BenchmarkNetworkStep's
// allocs/op gate in CI). When on it rides the same step path: events are
// reported where the engines already act — a wait at its end, flits at a
// channel's release — so a probe costs the events, not the waiters.
package metrics

import "turnmodel/internal/topology"

// Probe receives simulation events. Implementations must be cheap: the
// simulators deliver a cycle's events in one batch at its end, once per
// event. Implementations must not retain references to mutable simulator
// state (the arguments are all values).
//
// Event semantics, identical in both simulators:
//
//   - Inject: a packet's header flit entered the network (left the source
//     queue for the injection buffer).
//   - Blocked: the header waiting at router node was refused an output in
//     every cycle of [from, to): every permitted candidate was busy or
//     faulted, or arbitration gave the channel to a competing header. A
//     header's wait starts in the first cycle it can be offered an output
//     (the cycle it entered the buffer if it was injected, the next one if
//     it hopped there, later under a routing delay) and is reported once,
//     when it ends: at the grant (to is the grant's cycle), at an abort (to
//     is the abort's cycle), or at a flush (see FlushBlocked on either
//     engine), which reports every wait still under way up to the flush's
//     cycle and makes the next report of that wait start there. So each
//     blocked header-cycle is reported exactly once, and no span is empty.
//   - FlitMove: a packet's tail crossed the channel leaving `from` in
//     direction `dir`, which releases the channel; `flits` is the packet's
//     length, every flit of which has now crossed it. Ejection into the
//     destination processor is not a FlitMove, and an aborted worm reports
//     none for the channels it held.
//   - Deliver: a packet's tail flit was consumed at the destination.
//     queueDelay is the time from generation to injection (source
//     queueing), netDelay from injection to tail consumption; both are in
//     cycles and sum to the packet's end-to-end latency.
//   - Fault: the channel leaving `from` in direction `dir` broke
//     (failed=true) or was repaired (failed=false). Emitted by the
//     fault-injection layer as the fault plan advances.
//   - Abort: deadlock recovery yanked a blocked worm out of the network:
//     its flits were drained and its buffers and channels released.
//     attempt counts the packet's aborts so far (1 on the first). The
//     packet either retries (a later Retry then Inject) or is dropped (a
//     Drop follows in the same cycle), so in-flight accounting derived
//     from Inject/Deliver must subtract aborted injections.
//   - Retry: an aborted packet was requeued at its source, to reinject
//     after `delay` cycles of backoff.
//   - Drop: a packet was abandoned: its destination became unreachable
//     under the current fault set, or its retry budget ran out.
//   - Tick: the simulator finished one Step. cycle is the cycle that just
//     completed; Tick(c) is emitted after every event of cycle c.
type Probe interface {
	Inject(cycle int64, src, dst topology.NodeID, length int)
	Blocked(node topology.NodeID, from, to int64)
	FlitMove(cycle int64, from topology.NodeID, dir topology.Direction, flits int)
	Deliver(cycle int64, src, dst topology.NodeID, length, hops int, queueDelay, netDelay int64)
	Fault(cycle int64, from topology.NodeID, dir topology.Direction, failed bool)
	Abort(cycle int64, src, dst topology.NodeID, length, attempt int)
	Retry(cycle int64, src, dst topology.NodeID, attempt int, delay int64)
	Drop(cycle int64, src, dst topology.NodeID, length int, reason DropReason)
	Tick(cycle int64)
}

// NopProbe implements Probe with empty methods. Embed it to implement
// only the events a probe cares about (a tick counter, say) without
// spelling out the full interface.
type NopProbe struct{}

func (NopProbe) Inject(int64, topology.NodeID, topology.NodeID, int)                     {}
func (NopProbe) Blocked(topology.NodeID, int64, int64)                                   {}
func (NopProbe) FlitMove(int64, topology.NodeID, topology.Direction, int)                {}
func (NopProbe) Deliver(int64, topology.NodeID, topology.NodeID, int, int, int64, int64) {}
func (NopProbe) Fault(int64, topology.NodeID, topology.Direction, bool)                  {}
func (NopProbe) Abort(int64, topology.NodeID, topology.NodeID, int, int)                 {}
func (NopProbe) Retry(int64, topology.NodeID, topology.NodeID, int, int64)               {}
func (NopProbe) Drop(int64, topology.NodeID, topology.NodeID, int, DropReason)           {}
func (NopProbe) Tick(int64)                                                              {}

// DropReason says why a packet was dropped rather than delivered.
type DropReason int

const (
	// DropUnreachable: no fault-free path permitted by the routing
	// algorithm leads from the packet's position to its destination.
	DropUnreachable DropReason = iota
	// DropRetriesExhausted: the packet was aborted more times than the
	// recovery policy's retry budget allows.
	DropRetriesExhausted
)

func (r DropReason) String() string {
	switch r {
	case DropUnreachable:
		return "unreachable"
	case DropRetriesExhausted:
		return "retries-exhausted"
	}
	return "unknown"
}

// Tee fans every event out to both probes, a first, in order. Either may be
// nil, in which case the other is returned directly.
func Tee(a, b Probe) Probe {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &tee{a, b}
}

type tee struct{ a, b Probe }

func (t *tee) Inject(cycle int64, src, dst topology.NodeID, length int) {
	t.a.Inject(cycle, src, dst, length)
	t.b.Inject(cycle, src, dst, length)
}

func (t *tee) Blocked(node topology.NodeID, from, to int64) {
	t.a.Blocked(node, from, to)
	t.b.Blocked(node, from, to)
}

func (t *tee) FlitMove(cycle int64, from topology.NodeID, dir topology.Direction, flits int) {
	t.a.FlitMove(cycle, from, dir, flits)
	t.b.FlitMove(cycle, from, dir, flits)
}

func (t *tee) Deliver(cycle int64, src, dst topology.NodeID, length, hops int, queueDelay, netDelay int64) {
	t.a.Deliver(cycle, src, dst, length, hops, queueDelay, netDelay)
	t.b.Deliver(cycle, src, dst, length, hops, queueDelay, netDelay)
}

func (t *tee) Fault(cycle int64, from topology.NodeID, dir topology.Direction, failed bool) {
	t.a.Fault(cycle, from, dir, failed)
	t.b.Fault(cycle, from, dir, failed)
}

func (t *tee) Abort(cycle int64, src, dst topology.NodeID, length, attempt int) {
	t.a.Abort(cycle, src, dst, length, attempt)
	t.b.Abort(cycle, src, dst, length, attempt)
}

func (t *tee) Retry(cycle int64, src, dst topology.NodeID, attempt int, delay int64) {
	t.a.Retry(cycle, src, dst, attempt, delay)
	t.b.Retry(cycle, src, dst, attempt, delay)
}

func (t *tee) Drop(cycle int64, src, dst topology.NodeID, length int, reason DropReason) {
	t.a.Drop(cycle, src, dst, length, reason)
	t.b.Drop(cycle, src, dst, length, reason)
}

func (t *tee) Tick(cycle int64) {
	t.a.Tick(cycle)
	t.b.Tick(cycle)
}
