package engine

import (
	"fmt"

	"turnmodel/internal/topology"
)

// Packet is one wormhole packet. The paper's simulations use one packet
// per message, of 10 or 200 flits with equal probability; the first flit
// is the header and the last the tail. Both simulators share this
// bookkeeping (internal/network and internal/vcnet alias it).
type Packet struct {
	// ID is assigned by the network in enqueue order.
	ID int64
	// Src and Dst are the endpoints.
	Src, Dst topology.NodeID
	// Length is the packet size in flits (header and tail included).
	Length int
	// Created is the cycle the message was generated at the source
	// processor (it may then wait in the source queue).
	Created int64
	// Injected is the cycle the header flit entered the network; -1
	// until then.
	Injected int64
	// Arrived is the cycle the tail flit was consumed at the
	// destination; -1 until then.
	Arrived int64
	// Hops counts the channels the header traversed.
	Hops int
	// Aborts counts how many times deadlock recovery has pulled the
	// packet back out of the network. Injected and Hops reset on abort;
	// Created does not, so Latency spans every attempt.
	Aborts int

	// next links the packet into its source queue while it waits there.
	next *Packet
}

// Latency is the end-to-end message latency in cycles, including source
// queueing, or -1 if the packet has not arrived.
func (p *Packet) Latency() int64 {
	if p.Arrived < 0 {
		return -1
	}
	return p.Arrived - p.Created
}

// String renders the packet for diagnostics (watchdog reports, tests).
func (p *Packet) String() string {
	return fmt.Sprintf("packet %d %d->%d len=%d", p.ID, p.Src, p.Dst, p.Length)
}

// DeadlockError is returned by Step when the watchdog detects that no flit
// has moved for the configured number of cycles although packets are in
// flight — the signature of a routing deadlock. (The "network:" prefix is
// kept for both simulators: internal/vcnet has always returned the base
// simulator's error type.)
type DeadlockError struct {
	Cycle    int64
	InFlight int
	Stuck    []*Packet
}

// Error describes the deadlock: the cycle it was detected and the worms
// involved.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("network: deadlock at cycle %d: %d packets in flight, none progressing (e.g. %v)",
		e.Cycle, e.InFlight, e.Stuck[0])
}
