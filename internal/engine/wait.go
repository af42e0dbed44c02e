package engine

import "math/bits"

// The wait table: where the headers wait is where they are arbitrated.
//
// The paper's router arbitrates locally — "local first-come-first-served"
// decides among the headers sitting in one router's input buffers — so the
// engines keep the headers waiting for an output filed by router, each
// router's in service order. A header is enlisted when it enters a buffer
// and delisted when it is granted an output, reaches its destination, or is
// aborted; phase 2 of a step then just walks the waiters, routers ascending,
// and offers each its candidates. Nothing is collected or sorted per cycle.
//
// Filing at insertion is sound because a waiter's order key is frozen while
// it waits: the router is where the header sits, the policy key (header
// arrival cycle, packet creation cycle) was fixed when it got there, and
// the packet ID never changes. The visit order — router, then key, then ID
// — is exactly the order the engines used to obtain by sorting all requests
// every cycle, so Blocked probe events and the draws of randomized output
// policies are unchanged.
//
// The waiters form one doubly linked list in visit order, threaded through
// links the engines embed in their worms: a walk follows next pointers and
// touches no memory the offers would not touch anyway, which keeps a
// million-node mesh with a few thousand sparse waiters as cheap per waiter
// as a 256-node one. The per-router index (head) and the two-level bitmap
// of routers with waiters are consulted only to place a newcomer: head
// finds its router's run, and when the router had no waiter, the bitmap
// finds the nearest lower router that has, whose run the newcomer follows.
//
// Waiting is also sleeping. A header that was offered its candidates and
// refused stays refused until something it could use changes: one of the
// outputs its candidates name is released, the fault set changes, or — for a
// header still in the routing pipeline — time passes. So the table keeps,
// for every waiter, the set of its router's outputs its candidates name (its
// wants, which the engines set when they compute the candidates), and, for
// every router, the outputs released there since the walk last reached it;
// and in a second bitmap of the same shape the routers that are awake.
// Enlist wakes the newcomer's router, the engines call Release when they
// free one of a router's outputs and WakeAll when the fault set changes, and
// the cursor's Keep holds the current router awake for a waiter it could not
// offer yet. WalkAwake visits only the awake routers' runs — still routers
// ascending, each run in service order, so whatever the offers draw or emit
// keeps its order — puts each router to sleep as it reaches it, and offers a
// waiter there only if it is new (never offered at this router, or kept),
// if one of the outputs it wants was released, or if the fault set changed
// since its last offer. Any other waiter was refused while every output it
// wants was held or broken, and nothing it wants has changed since, so
// offering it again would refuse it again — and a refusal draws nothing
// from the engines' RNG and emits nothing without a probe. A cycle's phase 2
// then costs the headers it can serve, not every waiter of every router a
// release touched.

// WaitLink is one header's place in the table. The engines embed one in
// each worm; Owner is the worm, set once at construction.
type WaitLink[W any] struct {
	Owner W

	next, prev *WaitLink[W]
	key        int64
	id         int64
	// wants is the set of the router's outputs the waiter's candidates name
	// (see SetWants); offered is the table's epoch at the waiter's last
	// offer at this router, 0 while it has had none since it was enlisted
	// or kept.
	wants   uint64
	offered uint64
	router  int32
	listed  bool
}

// SetWants records the outputs of its router that the waiter's candidates
// name, as the union of their OutputBits. The engines call it whenever they
// compute the candidates — once per hop, and again after a fault-set change
// invalidated them — before the waiter can be refused.
func (l *WaitLink[W]) SetWants(wants uint64) { l.wants = wants }

// OutputBit is an output's bit in a want set (SetWants) and in a router's
// released set (Release). The engines number a router's outputs from 0:
// internal/network by direction, internal/vcnet by direction·maxVC + VC.
// Outputs from 64 on share the bit of their number modulo 64, so a waiter
// that wants one of them is offered whenever any output sharing its bit is
// released: more often than necessary, never less.
func OutputBit(output int) uint64 { return 1 << (uint(output) & 63) }

// Listed reports whether the link is currently in the table.
func (l *WaitLink[W]) Listed() bool { return l.listed }

// before reports whether l is served before m at the same router.
func (l *WaitLink[W]) before(m *WaitLink[W]) bool {
	return l.key < m.key || l.key == m.key && l.id < m.id
}

// routerSet is a set of routers as a two-level bitmap: bit r of words,
// with bit w of sum set iff words[w] is nonzero.
type routerSet struct {
	words []uint64
	sum   []uint64
}

func newRouterSet(routers int) routerSet {
	words := (routers + 63) / 64
	return routerSet{words: make([]uint64, words), sum: make([]uint64, (words+63)/64)}
}

func (s *routerSet) add(b uint) {
	s.words[b>>6] |= 1 << (b & 63)
	s.sum[b>>12] |= 1 << (b >> 6 & 63)
}

func (s *routerSet) remove(b uint) {
	if s.words[b>>6] &^= 1 << (b & 63); s.words[b>>6] == 0 {
		s.sum[b>>12] &^= 1 << (b >> 6 & 63)
	}
}

func (s *routerSet) has(b uint) bool { return s.words[b>>6]&(1<<(b&63)) != 0 }

// WaitTable holds every header waiting for an output: the waiters' list,
// the set of routers that have waiters, the set of routers that are awake
// and each router's released outputs (see WalkAwake). It is O(nodes) words
// and allocates nothing after construction.
type WaitTable[W any] struct {
	head     []*WaitLink[W] // router -> its first waiter
	released []uint64       // router -> outputs released since the walk last reached it
	first    *WaitLink[W]
	waiting  routerSet
	awake    routerSet
	// epoch advances with every WakeAll: a waiter last offered in an older
	// epoch is offered again whatever it wants. It starts at 1, offered's
	// "never".
	epoch uint64
}

// NewWaitTable builds the table for a network of the given node count.
func NewWaitTable[W any](nodes int) *WaitTable[W] {
	return &WaitTable[W]{
		head:     make([]*WaitLink[W], nodes),
		released: make([]uint64, nodes),
		waiting:  newRouterSet(nodes),
		awake:    newRouterSet(nodes),
		epoch:    1,
	}
}

// Reset empties the table, keeping its storage: afterwards it is what
// NewWaitTable returns for the same node count. The links of the waiters it
// held are left as they were; the engines reset a link when they enlist it.
func (t *WaitTable[W]) Reset() {
	clear(t.head)
	clear(t.released)
	for _, s := range [...]*routerSet{&t.waiting, &t.awake} {
		clear(s.words)
		clear(s.sum)
	}
	t.first, t.epoch = nil, 1
}

// below returns the highest router with waiters strictly below the given
// one, or -1.
func (t *WaitTable[W]) below(router int32) int32 {
	b := uint(router)
	wi := int(b >> 6)
	w := t.waiting.words[wi] & (1<<(b&63) - 1)
	if w == 0 {
		si := wi >> 6
		s := t.waiting.sum[si] & (1<<(uint(wi)&63) - 1)
		for s == 0 {
			if si--; si < 0 {
				return -1
			}
			s = t.waiting.sum[si]
		}
		wi = si<<6 + 63 - bits.LeadingZeros64(s)
		w = t.waiting.words[wi]
	}
	return int32(wi<<6 + 63 - bits.LeadingZeros64(w))
}

// Release records that the router's output (numbered as for OutputBit) was
// freed, so that the next WalkAwake offers it to the router's waiters that
// want it. A router without waiters has nobody to offer it to; a waiter
// enlisted there later is new, and offered anyway.
func (t *WaitTable[W]) Release(router int32, output int) {
	if t.head[router] != nil {
		t.released[router] |= OutputBit(output)
		t.awake.add(uint(router))
	}
}

// WakeAll offers every waiter again at the next WalkAwake: a change of the
// fault set can unblock (or re-route) any of them.
func (t *WaitTable[W]) WakeAll() {
	t.epoch++
	for i, w := range t.waiting.words {
		t.awake.words[i] |= w
	}
	for i, w := range t.waiting.sum {
		t.awake.sum[i] |= w
	}
}

// Awake reports whether the next WalkAwake will visit the router's waiters.
func (t *WaitTable[W]) Awake(router int32) bool { return t.awake.has(uint(router)) }

// Due reports whether the next WalkAwake will offer the waiter: it is
// listed at an awake router, and it is new there, or an output it wants was
// released there, or the fault set changed since its last offer.
func (t *WaitTable[W]) Due(l *WaitLink[W]) bool {
	return l.listed && t.awake.has(uint(l.router)) &&
		(l.offered != t.epoch || l.wants&t.released[l.router] != 0)
}

// Enlist files a header that just entered a buffer of the router: within
// the router's run, before every waiter with a larger (key, id). key is the
// input policy's priority and id the packet ID; both must stay fixed until
// the link is delisted. The router is woken: the newcomer has not been
// offered anything yet.
func (t *WaitTable[W]) Enlist(l *WaitLink[W], router int32, key, id int64) {
	if l.listed {
		panic("engine: header enlisted twice")
	}
	l.router, l.key, l.id, l.listed = router, key, id, true
	l.wants, l.offered = 0, 0
	t.awake.add(uint(router))
	// pred is the link l goes after; nil puts l first in the table.
	var pred *WaitLink[W]
	if h := t.head[router]; h == nil {
		// First waiter at this router: it follows the run of the nearest
		// lower router that has waiters.
		t.waiting.add(uint(router))
		if r := t.below(router); r >= 0 {
			for pred = t.head[r]; pred.next != nil && pred.next.router == r; {
				pred = pred.next
			}
		}
		t.head[router] = l
	} else if l.before(h) {
		pred = h.prev
		t.head[router] = l
	} else {
		for pred = h; pred.next != nil && pred.next.router == router && pred.next.before(l); {
			pred = pred.next
		}
	}
	if l.prev = pred; pred == nil {
		l.next, t.first = t.first, l
	} else {
		l.next, pred.next = pred.next, l
	}
	if l.next != nil {
		l.next.prev = l
	}
}

// Delist takes a header out of the table outside a walk (an abort); it is
// a no-op for a link that is not listed, such as an already granted
// worm's.
func (t *WaitTable[W]) Delist(l *WaitLink[W]) {
	if l.listed {
		t.unlink(l)
	}
}

func (t *WaitTable[W]) unlink(l *WaitLink[W]) {
	if l.prev == nil {
		t.first = l.next
	} else {
		l.prev.next = l.next
	}
	if l.next != nil {
		l.next.prev = l.prev
	}
	if t.head[l.router] == l {
		if l.next != nil && l.next.router == l.router {
			t.head[l.router] = l.next
		} else {
			t.head[l.router] = nil
			t.waiting.remove(uint(l.router))
		}
	}
	l.next, l.prev, l.listed = nil, nil, false
}

// WaitCursor walks the table: routers ascending, each router's waiters in
// service order.
//
//	for it := t.WalkAwake(); it.Next(); {
//		w := it.Waiter()
//		...
//		it.Delist() // granted, or at its destination
//	}
//
// During a walk the table may be changed only through the cursor's Delist
// and Keep, and a WalkAwake must run to the end: it takes each awake router
// out of the set, and its released outputs with it, as it goes. Every waiter
// an awake walk returns counts as offered; a full walk marks nobody.
type WaitCursor[W any] struct {
	t         *WaitTable[W]
	cur, next *WaitLink[W]

	// An awake walk's place in the awake set: the unvisited bits of summary
	// word si and of bitmap word wi, both already cleared in the set itself.
	// run is the router whose waiters the walk is among, and rel the outputs
	// released there, taken out of the table when the walk reached it.
	awake  bool
	si, wi int
	sw, ww uint64
	run    int32
	rel    uint64
}

// Walk starts a walk over every waiter. It is the walk of a step
// with a probe attached — a blocked header is a Blocked event every cycle it
// waits, so every waiter is visited every cycle — and of the tests' oracles;
// it leaves the awake set and the released outputs alone.
func (t *WaitTable[W]) Walk() WaitCursor[W] {
	return WaitCursor[W]{t: t, next: t.first}
}

// WalkAwake starts a walk over the waiters due at the awake routers (see
// Due), and puts each router to sleep as the walk reaches it: unless Keep
// says otherwise, every waiter it still has after the walk was offered and
// refused, and stays refused until an output it wants is released or the
// fault set changes.
func (t *WaitTable[W]) WalkAwake() WaitCursor[W] {
	return WaitCursor[W]{t: t, awake: true, si: -1}
}

// Next advances to the next waiter and reports whether there is one.
func (c *WaitCursor[W]) Next() bool {
	epoch := c.t.epoch
	for {
		if c.awake && (c.next == nil || c.next.router != c.run) {
			c.next = c.nextRun()
		}
		l := c.next
		if l == nil {
			c.cur = nil
			return false
		}
		c.next = l.next
		if c.awake {
			if l.offered == epoch && l.wants&c.rel == 0 {
				continue
			}
			l.offered = epoch
		}
		c.cur = l
		return true
	}
}

// nextRun takes the lowest unvisited awake router that has waiters out of
// the awake set, takes its released outputs, and returns its first waiter,
// or nil when none is left.
func (c *WaitCursor[W]) nextRun() *WaitLink[W] {
	a := &c.t.awake
	for {
		for c.ww == 0 {
			for c.sw == 0 {
				if c.si++; c.si >= len(a.sum) {
					return nil
				}
				c.sw, a.sum[c.si] = a.sum[c.si], 0
			}
			c.wi = c.si<<6 + bits.TrailingZeros64(c.sw)
			c.sw &= c.sw - 1
			c.ww, a.words[c.wi] = a.words[c.wi], 0
		}
		r := c.wi<<6 + bits.TrailingZeros64(c.ww)
		c.ww &= c.ww - 1
		c.rel, c.t.released[r] = c.t.released[r], 0
		if h := c.t.head[r]; h != nil {
			c.run = int32(r)
			return h
		}
	}
}

// Waiter returns the current waiter's owner.
func (c *WaitCursor[W]) Waiter() W { return c.cur.Owner }

// Delist takes the current waiter out of the table; the walk continues
// with its successor.
func (c *WaitCursor[W]) Delist() { c.t.unlink(c.cur) }

// Keep holds the current waiter's router awake for the next walk, and the
// waiter new there: it could not be offered its candidates this cycle for a
// reason that passes by itself.
func (c *WaitCursor[W]) Keep() {
	c.cur.offered = 0
	c.t.awake.add(uint(c.cur.router))
}
