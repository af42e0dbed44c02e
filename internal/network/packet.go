package network

import (
	"turnmodel/internal/engine"
	"turnmodel/internal/topology"
)

// Packet is one wormhole packet; the bookkeeping lives in the shared
// engine core (both simulators alias the same type, so packets and the
// structures built from them interoperate).
type Packet = engine.Packet

// noDirection marks a worm whose header has no allocated output port.
const noDirection topology.Direction = -2

// worm is the in-network state of a packet: the chain of single-flit input
// buffers its flits occupy. path records every buffer the worm has entered,
// starting with the source injection buffer; the in-network flits always
// occupy the contiguous suffix path[len(path)-inNetwork:].
type worm struct {
	pkt *Packet
	// path[i] is the i-th buffer the header entered (buffer ids). It is
	// backed by pathBuf until the route outgrows it.
	path []int32
	// sent counts flits that have left the source processor, delivered
	// counts flits consumed at the destination.
	sent, delivered int
	// outDir is the output port allocated for the header at its current
	// router, or noDirection while the header waits.
	outDir topology.Direction
	// arrived is set once the header has reached the destination
	// router's input buffer; from then on the worm drains one flit per
	// cycle into the local processor.
	arrived bool
	// wakeAt is the cycle an arrived worm's tail starts to move, while the
	// worm sleeps on the sleepers' timer until then (0 otherwise): every
	// cycle before it the source sends one more flit and the destination
	// consumes one, which changes nothing anybody else can see, so sent and
	// delivered stand still at their values on arrival and are brought up to
	// date on waking.
	wakeAt int64
	// headerArrival is the cycle the header entered its current buffer,
	// used by the local first-come-first-served input selection policy.
	headerArrival int64
	// target is the buffer the allocated output channel leads to (valid
	// while outDir is set): the worm advances when it is free.
	target int32
	// headRouter, inDir and inWrap cache the header's position state —
	// the router holding its buffer, the direction it was travelling when
	// it entered, and whether that hop crossed a wraparound — so the step
	// loop never decodes buffer ids or re-derives arrival wraps.
	headRouter topology.NodeID
	inDir      topology.Direction
	inWrap     bool
	// cands caches the routing algorithm's candidate outputs for the
	// header's current buffer (valid while candsValid); it is invalidated
	// on every hop so a blocked header re-requests without recomputing.
	// It is backed by candBuf when the algorithm supports appending.
	// candsMis marks cands as a misroute fallback set (fault-aware
	// routing): the next hop is a nonminimal detour and counts against
	// the packet's misroute budget, tracked in misroutes per attempt.
	cands      []topology.Direction
	candsValid bool
	candsMis   bool
	misroutes  int

	// wait is the header's link in the wait table while it waits for an
	// output at headRouter (see engine.WaitTable).
	wait engine.WaitLink[*worm]
	// next and prev link the worm into the active list.
	next, prev *worm

	candBuf [8]topology.Direction
	pathBuf [16]int32
}

func (w *worm) inNetwork() int { return w.sent - w.delivered }

// headBuf is the buffer of the most advanced in-network flit.
func (w *worm) headBuf() int32 { return w.path[len(w.path)-1] }

// wormList is a doubly linked list threaded through the worms' own links:
// appending keeps injection order, and a worm leaves in O(1) from wherever
// it is.
type wormList struct {
	head, tail *worm
	len        int
}

func (l *wormList) pushBack(w *worm) {
	if w.prev = l.tail; w.prev == nil {
		l.head = w
	} else {
		w.prev.next = w
	}
	l.tail = w
	l.len++
}

func (l *wormList) remove(w *worm) {
	if w.prev == nil {
		l.head = w.next
	} else {
		w.prev.next = w.next
	}
	if w.next == nil {
		l.tail = w.prev
	} else {
		w.next.prev = w.prev
	}
	w.next, w.prev = nil, nil
	l.len--
}
