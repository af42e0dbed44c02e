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
// refused stays refused until something at its router changes: an output
// channel there is released, the fault set changes, or — for a header still
// in the routing pipeline — time passes. So the table keeps, in a second
// bitmap of the same shape, the routers that are awake: Enlist wakes the
// newcomer's router, the engines call Wake when they release one of a
// router's outputs and WakeAll when the fault set changes, and the cursor's
// Keep holds the current router awake for a waiter it could not offer yet.
// WalkAwake visits only the awake routers' runs — still routers ascending,
// each run in service order, so whatever the offers draw or emit keeps its
// order — and puts each router to sleep as it reaches it. A cycle's phase 2
// then costs the wakes since the last one, not the waiters.

// WaitLink is one header's place in the table. The engines embed one in
// each worm; Owner is the worm, set once at construction.
type WaitLink[W any] struct {
	Owner W

	next, prev *WaitLink[W]
	key        int64
	id         int64
	router     int32
	listed     bool
}

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
// the set of routers that have waiters, and the set of routers that are
// awake (see WalkAwake). It is O(nodes) words and allocates nothing after
// construction.
type WaitTable[W any] struct {
	head    []*WaitLink[W] // router -> its first waiter
	first   *WaitLink[W]
	waiting routerSet
	awake   routerSet
}

// NewWaitTable builds the table for a network of the given node count.
func NewWaitTable[W any](nodes int) *WaitTable[W] {
	return &WaitTable[W]{
		head:    make([]*WaitLink[W], nodes),
		waiting: newRouterSet(nodes),
		awake:   newRouterSet(nodes),
	}
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

// Wake records that something a refused waiter of the router may have been
// waiting for has changed — the engines call it when one of the router's
// output channels is released — so the next WalkAwake offers the router's
// waiters again.
func (t *WaitTable[W]) Wake(router int32) {
	if t.head[router] != nil {
		t.awake.add(uint(router))
	}
}

// WakeAll wakes every router that has waiters: a change of the fault set
// can unblock (or re-route) any of them.
func (t *WaitTable[W]) WakeAll() {
	for i, w := range t.waiting.words {
		t.awake.words[i] |= w
	}
	for i, w := range t.waiting.sum {
		t.awake.sum[i] |= w
	}
}

// Awake reports whether the next WalkAwake will visit the router's waiters.
func (t *WaitTable[W]) Awake(router int32) bool { return t.awake.has(uint(router)) }

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
// out of the set as it goes.
type WaitCursor[W any] struct {
	t         *WaitTable[W]
	cur, next *WaitLink[W]

	// An awake walk's place in the awake set: the unvisited bits of summary
	// word si and of bitmap word wi, both already cleared in the set itself.
	// cur's run ends where next is nil or at another router.
	awake  bool
	si, wi int
	sw, ww uint64
}

// Walk starts a walk over every waiter. It is the walk of a step
// with a probe attached — a blocked header is a Blocked event every cycle it
// waits, so every waiter is visited every cycle — and of the tests' oracles;
// it leaves the awake set alone.
func (t *WaitTable[W]) Walk() WaitCursor[W] {
	return WaitCursor[W]{t: t, next: t.first}
}

// WalkAwake starts a walk over the waiters at the awake routers, and
// puts each router to sleep as the walk reaches it: unless Keep says
// otherwise, every waiter it still has after the walk was offered and
// refused, and stays refused until the router is woken.
func (t *WaitTable[W]) WalkAwake() WaitCursor[W] {
	return WaitCursor[W]{t: t, awake: true, si: -1}
}

// Next advances to the next waiter and reports whether there is one.
func (c *WaitCursor[W]) Next() bool {
	if c.awake && (c.next == nil || c.next.router != c.cur.router) {
		c.next = c.nextRun()
	}
	if c.cur = c.next; c.cur == nil {
		return false
	}
	c.next = c.cur.next
	return true
}

// nextRun takes the lowest unvisited awake router that has waiters out of
// the awake set and returns its first waiter, or nil when none is left.
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
		if h := c.t.head[r]; h != nil {
			return h
		}
	}
}

// Waiter returns the current waiter's owner.
func (c *WaitCursor[W]) Waiter() W { return c.cur.Owner }

// Delist takes the current waiter out of the table; the walk continues
// with its successor.
func (c *WaitCursor[W]) Delist() { c.t.unlink(c.cur) }

// Keep holds the current waiter's router awake for the next walk: the
// waiter could not be offered its candidates this cycle for a reason that
// passes by itself.
func (c *WaitCursor[W]) Keep() { c.t.awake.add(uint(c.cur.router)) }
