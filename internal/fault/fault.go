// Package fault defines deterministic, seed-driven channel-fault plans for
// the wormhole simulators and the recovery policy applied when faults (or
// any other cause) stop a network's progress.
//
// The paper's closing argument for adaptivity is fault tolerance: an
// adaptive turn-model router can deliver around a broken channel where
// dimension-order routing stalls. A Plan turns that claim into a workload:
// it describes which unidirectional channels are broken when, either
// statically (a fixed channel list, or whole-node failures taking out every
// incident channel) or stochastically (Bernoulli per-cycle link failure,
// optionally transient with a fixed repair delay). A State is one plan
// instantiated on one topology; the simulators advance it once per cycle
// and consult its Faulted bitmap during output allocation.
//
// Everything is deterministic: the random component draws from its own
// seeded stream, failure gaps are sampled geometrically (exactly the
// Bernoulli per-cycle process), and pending events are processed in
// (cycle, channel) order, so identical (plan, topology) pairs replay
// identical fault histories regardless of caller scheduling.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"turnmodel/internal/topology"
)

// Plan describes a fault workload. The zero value injects no faults.
// A single plan can combine all components: static broken channels, failed
// nodes, and a random per-cycle link-failure process.
type Plan struct {
	// Static lists unidirectional channels broken from cycle 0, forever.
	Static []topology.Channel
	// Nodes lists failed nodes: every channel incident to a failed node
	// (entering and leaving it) is broken from cycle 0, forever. The
	// node's processor itself keeps generating and consuming messages —
	// a failed node models a broken router, and traffic addressed to it
	// becomes undeliverable.
	Nodes []topology.NodeID
	// Rate is the per-cycle, per-channel failure probability of the
	// random component. Each healthy channel fails in a cycle with this
	// probability, independently (a Bernoulli process, sampled via
	// geometric gaps). 0 disables random faults.
	Rate float64
	// Repair is the repair delay in cycles for random faults: a channel
	// failed by the random process comes back up Repair cycles later and
	// can fail again. 0 makes random faults permanent. Static and node
	// faults never repair.
	Repair int64
	// Seed seeds the random component's stream. Plans with equal seeds
	// replay identical fault histories on the same topology.
	Seed int64
}

// Empty reports whether the plan injects no faults at all.
func (p Plan) Empty() bool {
	return len(p.Static) == 0 && len(p.Nodes) == 0 && p.Rate <= 0
}

// Validate checks that every static channel and failed node exists in the
// topology. Both simulators call it through NewState, so the two engines
// share one validation path.
func Validate(topo topology.Topology, p Plan) error {
	for _, ch := range p.Static {
		if !ch.Dir.Valid(topo.Dims()) {
			return fmt.Errorf("fault: channel %v has no direction %v in %s", ch, ch.Dir, topo.Name())
		}
		if _, ok := topo.Neighbor(ch.From, ch.Dir); !ok {
			return fmt.Errorf("fault: fault on nonexistent channel %v", ch)
		}
	}
	for _, node := range p.Nodes {
		if node < 0 || int(node) >= topo.Nodes() {
			return fmt.Errorf("fault: failed node %d outside [0,%d)", node, topo.Nodes())
		}
	}
	if p.Rate < 0 || p.Rate >= 1 {
		return fmt.Errorf("fault: rate %v outside [0,1)", p.Rate)
	}
	if p.Repair < 0 {
		return fmt.Errorf("fault: negative repair delay %d", p.Repair)
	}
	return nil
}

// event is one pending fault transition of the random process.
type event struct {
	cycle int64
	ch    int32 // node*2n+dir channel key
	fail  bool
}

// State is a Plan instantiated on a topology: the live fault bitmap plus
// the pending random fail/repair events. It is advanced by the owning
// simulator once per cycle and is not safe for concurrent use.
type State struct {
	dims2 int

	// Faulted marks broken channels, indexed node*2n+dir — the exact
	// layout the simulators use for output allocation, so they can consult
	// it with one load and no translation.
	Faulted []bool

	// OnChange, when non-nil, observes every fault transition as it is
	// applied (failed=true on break, false on repair). The simulators use
	// it to emit probe events.
	OnChange func(from topology.NodeID, dir topology.Direction, failed bool)

	perm   []bool // static/node faults: never repair, never re-fail
	events []event
	rng    *rand.Rand
	rate   float64
	// logq is log(1-rate), the denominator of every gap draw.
	logq   float64
	repair int64

	active     int
	failEvents int64
	epoch      int64
}

// NewState instantiates the plan on the topology. It returns an error for
// plans referencing channels or nodes the topology does not have.
func NewState(p Plan, topo topology.Topology) (*State, error) {
	s := new(State)
	if err := s.Reset(p, topo); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset instantiates the plan on the topology in place: afterwards the
// state is the one NewState(p, topo) returns, except that OnChange is kept.
// The bitmaps and the event heap keep their storage, and the RNG is
// re-seeded rather than rebuilt — (*rand.Rand).Seed restarts the stream a
// fresh source of that seed produces — so resetting a state for a plan on
// a topology it has held before allocates nothing. On an error the state
// is left as it was.
func (s *State) Reset(p Plan, topo topology.Topology) error {
	if err := Validate(topo, p); err != nil {
		return err
	}
	dims2 := 2 * topo.Dims()
	channels := topo.Nodes() * dims2
	s.dims2 = dims2
	s.Faulted = slices.Grow(s.Faulted[:0], channels)[:channels]
	clear(s.Faulted)
	s.perm = slices.Grow(s.perm[:0], channels)[:channels]
	clear(s.perm)
	s.events = s.events[:0]
	s.rate, s.logq, s.repair = p.Rate, 0, p.Repair
	s.active, s.failEvents, s.epoch = 0, 0, 0
	mark := func(node topology.NodeID, d topology.Direction) {
		key := int(node)*dims2 + int(d)
		if !s.Faulted[key] {
			s.Faulted[key] = true
			s.active++
			s.failEvents++
		}
		s.perm[key] = true
	}
	for _, ch := range p.Static {
		mark(ch.From, ch.Dir)
	}
	for _, node := range p.Nodes {
		for d := 0; d < dims2; d++ {
			dir := topology.Direction(d)
			// Outgoing channel, if the topology has it.
			if _, ok := topo.Neighbor(node, dir); ok {
				mark(node, dir)
			}
			// Incoming channel: the neighbor reached in direction dir
			// sends back toward node on the opposite direction.
			if nb, ok := topo.Neighbor(node, dir); ok {
				if back, ok2 := topo.Neighbor(nb, dir.Opposite()); ok2 && back == node {
					mark(nb, dir.Opposite())
				}
			}
		}
	}
	if s.active > 0 {
		s.epoch++
	}
	if p.Rate <= 0 {
		s.rng = nil
		return nil
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(p.Seed))
	} else {
		s.rng.Seed(p.Seed)
	}
	s.logq = math.Log1p(-p.Rate)
	// Seed the process: every live channel draws its first failure time,
	// in channel order, so the stream consumption is a pure function of
	// the plan and topology. A channel never has more than one pending
	// event, so the heap never outgrows the channel count, and its
	// (cycle, channel) keys are unique: the pop order is the sorted order
	// however the heap was built, so it is built once, not push by push.
	if cap(s.events) < channels {
		s.events = make([]event, 0, channels)
	}
	for key := 0; key < channels; key++ {
		if s.perm[key] {
			continue
		}
		if _, ok := topo.Neighbor(topology.NodeID(key/dims2), topology.Direction(key%dims2)); !ok {
			continue
		}
		s.events = append(s.events, event{cycle: s.gap(), ch: int32(key), fail: true})
	}
	for i := len(s.events)/2 - 1; i >= 0; i-- {
		s.down(i)
	}
	return nil
}

// MustNew is NewState for callers that treat a bad plan as a programming
// error (the simulators' constructors, which panic on bad config).
func MustNew(p Plan, topo topology.Topology) *State {
	s, err := NewState(p, topo)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// gap samples the geometric inter-failure gap of the Bernoulli process:
// P(gap = k) = rate * (1-rate)^(k-1), k >= 1.
func (s *State) gap() int64 {
	u := s.rng.Float64()
	for u == 0 {
		u = s.rng.Float64()
	}
	g := int64(math.Log(u)/s.logq) + 1
	if g < 1 {
		g = 1
	}
	return g
}

// push inserts an event into the min-heap ordered by (cycle, ch).
func (s *State) push(e event) {
	s.events = append(s.events, e)
	i := len(s.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(s.events[i], s.events[parent]) {
			break
		}
		s.events[i], s.events[parent] = s.events[parent], s.events[i]
		i = parent
	}
}

func (s *State) pop() event {
	top := s.events[0]
	last := len(s.events) - 1
	s.events[0] = s.events[last]
	s.events = s.events[:last]
	s.down(0)
	return top
}

// down sifts the event at i down to its place in the heap.
func (s *State) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s.events) && less(s.events[l], s.events[min]) {
			min = l
		}
		if r < len(s.events) && less(s.events[r], s.events[min]) {
			min = r
		}
		if min == i {
			return
		}
		s.events[i], s.events[min] = s.events[min], s.events[i]
		i = min
	}
}

func less(a, b event) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.ch < b.ch
}

// Advance applies every fault transition due at or before the given cycle.
// The simulators call it once at the top of every Step; with no random
// component it returns immediately.
func (s *State) Advance(cycle int64) {
	for len(s.events) > 0 && s.events[0].cycle <= cycle {
		e := s.pop()
		key := int(e.ch)
		if s.perm[key] {
			continue // permanently broken meanwhile; the process stops here
		}
		if e.fail {
			if !s.Faulted[key] {
				s.Faulted[key] = true
				s.active++
				s.failEvents++
				s.epoch++
				s.notify(key, true)
			}
			if s.repair > 0 {
				s.push(event{cycle: e.cycle + s.repair, ch: e.ch, fail: false})
			}
			// Repair == 0: permanent random fault, no more events.
		} else {
			if s.Faulted[key] {
				s.Faulted[key] = false
				s.active--
				s.epoch++
				s.notify(key, false)
			}
			s.push(event{cycle: e.cycle + s.gap(), ch: e.ch, fail: true})
		}
	}
}

func (s *State) notify(key int, failed bool) {
	if s.OnChange != nil {
		s.OnChange(topology.NodeID(key/s.dims2), topology.Direction(key%s.dims2), failed)
	}
}

// NextEventCycle reports the cycle of the earliest pending fault
// transition (failure or repair), or math.MaxInt64 when none is scheduled
// — static-only plans schedule nothing after construction. The event at
// that cycle may turn out to be a no-op (the channel became permanently
// broken meanwhile), so callers may only use the value as a lower bound:
// no transition is applied strictly before it. The event-driven step
// loops leap the clock up to (never past) this cycle, which keeps every
// fault transition — and the probe events and epoch changes it triggers —
// on its exact cycle.
func (s *State) NextEventCycle() int64 {
	if len(s.events) == 0 {
		return math.MaxInt64
	}
	return s.events[0].cycle
}

// ActiveFaults reports how many channels are currently broken.
func (s *State) ActiveFaults() int { return s.active }

// FailEvents reports the cumulative number of channel-break events,
// including the static faults applied at construction.
func (s *State) FailEvents() int64 { return s.failEvents }

// Epoch increments on every change to the fault set. Callers caching
// anything derived from the fault set (reachability, candidate lists)
// invalidate when the epoch moves.
func (s *State) Epoch() int64 { return s.epoch }

// Recovery configures deadlock recovery: instead of the watchdog's
// fail-stop DeadlockError, a stalled network aborts the oldest blocked
// worm, drains its flits, and retries it from the source with capped
// exponential backoff. The zero value (Enabled false) keeps the fail-stop
// watchdog.
type Recovery struct {
	// Enabled turns recovery on.
	Enabled bool
	// StallCycles is how long the network may go without any flit
	// movement (while packets are in flight) before a worm is aborted.
	// 0 selects the default (1000).
	StallCycles int64
	// BackoffBase is the first retry delay in cycles; each further abort
	// of the same packet doubles it up to BackoffCap. 0 selects 16 and
	// 1024 respectively.
	BackoffBase int64
	BackoffCap  int64
	// MaxRetries caps how many times one packet may be aborted and
	// retried before it is dropped. 0 selects the default (8); negative
	// retries forever.
	MaxRetries int
}

// WithDefaults fills in the default thresholds.
func (r Recovery) WithDefaults() Recovery {
	if r.StallCycles <= 0 {
		r.StallCycles = 1000
	}
	if r.BackoffBase <= 0 {
		r.BackoffBase = 16
	}
	if r.BackoffCap <= 0 {
		r.BackoffCap = 1024
	}
	if r.MaxRetries == 0 {
		r.MaxRetries = 8
	}
	return r
}

// Backoff is the retry delay after the packet's attempt-th abort
// (attempt >= 1): BackoffBase doubled per additional attempt, capped at
// BackoffCap. Attempts 0 and 1 both return the base delay, and the
// doubling saturates at the cap before it could overflow, so arbitrarily
// large attempt counts are safe even with a cap near MaxInt64.
func (r Recovery) Backoff(attempt int) int64 {
	d := r.BackoffBase
	if d <= 0 {
		return 0 // doubling can never grow a non-positive base
	}
	if d >= r.BackoffCap {
		return r.BackoffCap
	}
	for i := 1; i < attempt; i++ {
		if d > r.BackoffCap/2 {
			// Doubling would pass (or overflow past) the cap.
			return r.BackoffCap
		}
		d *= 2
		if d >= r.BackoffCap {
			return r.BackoffCap
		}
	}
	return d
}
