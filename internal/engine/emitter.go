package engine

import (
	"turnmodel/internal/metrics"
	"turnmodel/internal/topology"
)

// Emitter batches probe events: the step loops record events into a
// reusable tagged buffer and Tick replays them, in emission order, into the
// configured metrics.Probe before forwarding the Tick itself. Batching
// keeps the interface dispatch out of the innermost loops; with no probe
// configured every method returns immediately, so the no-probe step path
// stays allocation-free (enforced by TestStepZeroAllocs).
//
// Probe semantics are preserved exactly: events of cycle c reach the probe
// in the order they were emitted, before Tick(c), and never after it.
type Emitter struct {
	probe  metrics.Probe
	events []probeEvent
}

type probeEventKind uint8

const (
	evInject probeEventKind = iota
	evBlocked
	evFlitMove
	evDeliver
	evFault
	evAbort
	evRetry
	evDrop
)

// probeEvent is one buffered probe call; the meaning of a, b, x, y, z
// depends on kind.
type probeEvent struct {
	kind   probeEventKind
	failed bool
	dir    topology.Direction
	reason metrics.DropReason
	cycle  int64
	a, b   topology.NodeID
	x, y   int64
	z, w   int64
}

// NewEmitter wraps a probe; a nil probe yields a disabled emitter.
func NewEmitter(p metrics.Probe) Emitter { return Emitter{probe: p} }

// Reset attaches another probe (nil disables the emitter), dropping any
// buffered event and keeping the buffer's storage.
func (e *Emitter) Reset(p metrics.Probe) {
	e.probe, e.events = p, e.events[:0]
}

// Enabled reports whether a probe is attached.
func (e *Emitter) Enabled() bool { return e.probe != nil }

// Probe returns the attached probe (nil when disabled).
func (e *Emitter) Probe() metrics.Probe { return e.probe }

// Inject buffers a packet-injection event (a worm left its source queue).
func (e *Emitter) Inject(cycle int64, src, dst topology.NodeID, length int) {
	if e.probe == nil {
		return
	}
	e.events = append(e.events, probeEvent{kind: evInject, cycle: cycle, a: src, b: dst, x: int64(length)})
}

// Blocked buffers a blocked-cycle event (a waiting header got no output).
func (e *Emitter) Blocked(cycle int64, node topology.NodeID) {
	if e.probe == nil {
		return
	}
	e.events = append(e.events, probeEvent{kind: evBlocked, cycle: cycle, a: node})
}

// FlitMove buffers a flit-movement event (flits crossed the channel
// leaving from in direction dir).
func (e *Emitter) FlitMove(cycle int64, from topology.NodeID, dir topology.Direction, flits int) {
	if e.probe == nil {
		return
	}
	e.events = append(e.events, probeEvent{kind: evFlitMove, cycle: cycle, a: from, dir: dir, x: int64(flits)})
}

// Deliver buffers a delivery event with the packet's hop count and its
// queueing-vs-in-network delay split.
func (e *Emitter) Deliver(cycle int64, src, dst topology.NodeID, length, hops int, queueDelay, netDelay int64) {
	if e.probe == nil {
		return
	}
	e.events = append(e.events, probeEvent{
		kind: evDeliver, cycle: cycle, a: src, b: dst,
		x: int64(length), y: int64(hops), z: queueDelay, w: netDelay,
	})
}

// Fault buffers a channel fault transition (failed or repaired).
func (e *Emitter) Fault(cycle int64, from topology.NodeID, dir topology.Direction, failed bool) {
	if e.probe == nil {
		return
	}
	e.events = append(e.events, probeEvent{kind: evFault, cycle: cycle, a: from, dir: dir, failed: failed})
}

// Abort buffers a recovery abort (a deadlocked worm withdrawn to its
// source; attempt counts prior tries).
func (e *Emitter) Abort(cycle int64, src, dst topology.NodeID, length, attempt int) {
	if e.probe == nil {
		return
	}
	e.events = append(e.events, probeEvent{kind: evAbort, cycle: cycle, a: src, b: dst, x: int64(length), y: int64(attempt)})
}

// Retry buffers a recovery reinjection scheduled after a backoff delay.
func (e *Emitter) Retry(cycle int64, src, dst topology.NodeID, attempt int, delay int64) {
	if e.probe == nil {
		return
	}
	e.events = append(e.events, probeEvent{kind: evRetry, cycle: cycle, a: src, b: dst, x: int64(attempt), y: delay})
}

// Drop buffers a packet drop (e.g. an unreachable destination) with its
// reason.
func (e *Emitter) Drop(cycle int64, src, dst topology.NodeID, length int, reason metrics.DropReason) {
	if e.probe == nil {
		return
	}
	e.events = append(e.events, probeEvent{kind: evDrop, cycle: cycle, a: src, b: dst, x: int64(length), reason: reason})
}

// Tick flushes every buffered event to the probe in order, then forwards
// the end-of-cycle Tick.
func (e *Emitter) Tick(cycle int64) {
	if e.probe == nil {
		return
	}
	for i := range e.events {
		ev := &e.events[i]
		switch ev.kind {
		case evInject:
			e.probe.Inject(ev.cycle, ev.a, ev.b, int(ev.x))
		case evBlocked:
			e.probe.Blocked(ev.cycle, ev.a)
		case evFlitMove:
			e.probe.FlitMove(ev.cycle, ev.a, ev.dir, int(ev.x))
		case evDeliver:
			e.probe.Deliver(ev.cycle, ev.a, ev.b, int(ev.x), int(ev.y), ev.z, ev.w)
		case evFault:
			e.probe.Fault(ev.cycle, ev.a, ev.dir, ev.failed)
		case evAbort:
			e.probe.Abort(ev.cycle, ev.a, ev.b, int(ev.x), int(ev.y))
		case evRetry:
			e.probe.Retry(ev.cycle, ev.a, ev.b, int(ev.x), ev.y)
		case evDrop:
			e.probe.Drop(ev.cycle, ev.a, ev.b, int(ev.x), ev.reason)
		}
	}
	e.events = e.events[:0]
	e.probe.Tick(cycle)
}

// TickEmpty forwards the end-of-cycle Tick for n consecutive cycles that
// had no events, starting at cycle. The event-driven clock calls it when
// leaping over idle cycles: the leap happens right after a Tick flushed
// the buffer and an idle network emits nothing, so there is nothing to
// replay — each skipped cycle contributes exactly the Tick a stepped run
// of it would have, keeping collector state (occupancy sampling,
// last-cycle tracking) identical across leaps. Free with no probe.
func (e *Emitter) TickEmpty(cycle, n int64) {
	if e.probe == nil {
		return
	}
	for i := int64(0); i < n; i++ {
		e.probe.Tick(cycle + i)
	}
}
