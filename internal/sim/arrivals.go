package sim

import (
	"math"
	"math/rand"

	"turnmodel/internal/topology"
)

// arrivals is a run's message generation: one Poisson process per node, with
// the nodes' next arrival times kept in a min-heap so that a cycle costs the
// arrivals due at it, not a look at every node.
//
// The heap is keyed by (the cycle the node's next arrival falls due at,
// node). That is the order the scan over all nodes it replaces fired them
// in, and so the order of the RNG draws — one ExpFloat64 per arrival, then
// whatever the caller's fire draws — provided nothing is ever overdue: the
// scan fired every node with an arrival at or before the cycle in ascending
// node order, whatever cycle each had fallen due at. Nothing is: measure
// calls generate before every Step, and a Step ends on the next cycle or, if
// it leaps, no later than the injection horizon — which measure sets no later
// than the cycle generate returned. So the first cycle generate sees at or
// after that one is that one, every entry due at it has it as its key, and
// the heap yields them in ascending node order, each node firing all of its
// arrivals of the cycle before the next node fires any, as in the scan.
// TestArrivalsMatchScan runs the scan alongside as the oracle.
type arrivals struct {
	rng     *rand.Rand
	meanGap float64
	next    []float64 // node -> time of its next arrival, in cycles
	heap    []arrival // min-heap on (at, node), one entry per node
}

type arrival struct {
	at   int64
	node int32
}

func (a arrival) before(b arrival) bool {
	return a.at < b.at || a.at == b.at && a.node < b.node
}

// newArrivals draws every node's first arrival time, in node order.
func newArrivals(rng *rand.Rand, nodes int, meanGap float64) *arrivals {
	a := &arrivals{
		rng:     rng,
		meanGap: meanGap,
		next:    make([]float64, nodes),
		heap:    make([]arrival, nodes),
	}
	for i := range a.next {
		a.next[i] = rng.ExpFloat64() * meanGap
		a.heap[i] = arrival{at: dueCycle(a.next[i]), node: int32(i)}
	}
	for i := nodes/2 - 1; i >= 0; i-- {
		a.siftDown(i)
	}
	return a
}

// dueCycle is the first cycle at or after time t; never, for a process that
// does not generate (a zero-rate run's gaps are infinite).
func dueCycle(t float64) int64 {
	if !(t < math.MaxInt64) {
		return math.MaxInt64
	}
	return int64(math.Ceil(t))
}

// generate fires every arrival due at the cycle — fire draws the message's
// destination and length and enqueues it — and reports the first future cycle
// at which any node generates again: the injection horizon the event-driven
// clock may leap to.
func (a *arrivals) generate(cycle int64, fire func(node topology.NodeID)) int64 {
	for a.heap[0].at <= cycle {
		node := a.heap[0].node
		for a.next[node] <= float64(cycle) {
			a.next[node] += a.rng.ExpFloat64() * a.meanGap
			fire(topology.NodeID(node))
		}
		a.heap[0].at = dueCycle(a.next[node])
		a.siftDown(0)
	}
	return a.heap[0].at
}

func (a *arrivals) siftDown(i int) {
	h := a.heap
	e := h[i]
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
}
