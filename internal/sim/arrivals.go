package sim

import (
	"math"
	"math/rand"
	"slices"

	"turnmodel/internal/engine"
	"turnmodel/internal/topology"
)

// arrivals is a run's message generation: one Poisson process per node, each
// node's next arrival kept as one timer on an engine.Timers wheel, so that a
// cycle costs the arrivals due at it, not a look at every node.
//
// generate pops the nodes due at the cycle, sorts those few by node and fires
// them in ascending node order, each node firing all of its arrivals of the
// cycle before the next node fires any. That is the order the scan over all
// nodes it replaces fired them in, and so the order of the RNG draws — one
// ExpFloat64 per arrival, then whatever the caller's fire draws. The scan
// fired every node with an arrival at or before the cycle, whatever cycle
// each had fallen due at; so does the wheel, whose PopDue drains everything
// due by the cycle. (Nothing is ever overdue anyway: measure calls generate
// before every Step, and a Step ends on the next cycle or, if it leaps, no
// later than the injection horizon — which measure sets no later than the
// cycle generate returned.) TestArrivalsMatchScan runs the scan alongside as
// the oracle.
type arrivals struct {
	rng     *rand.Rand
	meanGap float64
	next    []float64 // node -> time of its next arrival, in cycles
	due     engine.Timers[int32]
	horizon int64   // the cycle the last generate returned
	fired   []int32 // scratch: the nodes due at the cycle
}

// newArrivals draws every node's first arrival time, in node order.
func newArrivals(rng *rand.Rand, nodes int, meanGap float64) *arrivals {
	a := new(arrivals)
	a.reset(rng, nodes, meanGap)
	return a
}

// reset is newArrivals in place, keeping the tables and the wheel's storage.
func (a *arrivals) reset(rng *rand.Rand, nodes int, meanGap float64) {
	a.rng, a.meanGap = rng, meanGap
	a.next = slices.Grow(a.next[:0], nodes)[:nodes]
	a.due.Reset()
	a.horizon, a.fired = 0, a.fired[:0]
	for i := range a.next {
		a.next[i] = rng.ExpFloat64() * meanGap
		a.arm(int32(i))
	}
}

// arm puts the node's next arrival on the wheel; a process that does not
// generate (a zero-rate run's gaps are infinite) is never armed.
func (a *arrivals) arm(node int32) {
	if t := a.next[node]; t < math.MaxInt64 {
		a.due.Push(int64(math.Ceil(t)), node)
	}
}

// generate fires every arrival due at the cycle — fire draws the message's
// destination and length and enqueues it — and reports the first future cycle
// at which any node generates again: the injection horizon the event-driven
// clock may leap to (math.MaxInt64 when no node ever does).
func (a *arrivals) generate(cycle int64, fire func(node topology.NodeID)) int64 {
	if cycle < a.horizon {
		return a.horizon // nothing is due before it, and nothing was armed since
	}
	fired := a.fired[:0]
	for {
		node, ok := a.due.PopDue(cycle)
		if !ok {
			break
		}
		fired = append(fired, node)
	}
	if len(fired) > 1 {
		slices.Sort(fired)
	}
	for _, node := range fired {
		for a.next[node] <= float64(cycle) {
			a.next[node] += a.rng.ExpFloat64() * a.meanGap
			fire(topology.NodeID(node))
		}
		a.arm(node)
	}
	a.fired = fired
	a.horizon = a.due.Next()
	return a.horizon
}
