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
// every cycle, so Blocked probe events, the draws of randomized output
// policies and the sharded step's "domain order = serial order" argument
// are unchanged.
//
// The waiters of a part form one doubly linked list in visit order,
// threaded through links the engines embed in their worms: a walk follows
// next pointers and touches no memory the offers would not touch anyway,
// which keeps a million-node mesh with a few thousand sparse waiters as
// cheap per waiter as a 256-node one. The per-router index (head) and the
// two-level bitmap of routers with waiters are consulted only to place a
// newcomer: head finds its router's run, and when the router had no
// waiter, the bitmap finds the nearest lower router that has, whose run the
// newcomer follows.
//
// Parts are the sharded step's spatial domains. Each owns its list and its
// bitmap words outright (domains never share a word), and a router's
// entries are only ever touched by the domain that owns the router, so
// domains walk and delist concurrently.

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

// waitPart is one domain's share of the table: its waiters' list, and the
// set of its routers that have waiters — bit r-lo of words, with bit w of
// sum set iff words[w] is nonzero.
type waitPart[W any] struct {
	first *WaitLink[W]
	lo    int32
	words []uint64
	sum   []uint64
}

// WaitTable holds every header waiting for an output. It is O(nodes) words
// and allocates nothing after construction.
type WaitTable[W any] struct {
	head  []*WaitLink[W] // router -> its first waiter
	parts []waitPart[W]
}

// NewWaitTable builds the table for a Core's node space, with one part per
// spatial domain (one part in all for serial stepping).
func NewWaitTable[W any](c *Core) *WaitTable[W] {
	t := &WaitTable[W]{
		head:  make([]*WaitLink[W], c.Topo.Nodes()),
		parts: make([]waitPart[W], c.shards),
	}
	for d := range t.parts {
		lo, hi := int32(0), int32(c.Topo.Nodes())
		if c.shards > 1 {
			lo, hi = c.ShardRange(d)
		}
		words := (int(hi-lo) + 63) / 64
		t.parts[d] = waitPart[W]{
			lo:    lo,
			words: make([]uint64, words),
			sum:   make([]uint64, (words+63)/64),
		}
	}
	return t
}

// Parts reports how many parts the table has; Walk visits one. Walking
// parts 0..Parts()-1 in order visits every waiter in ascending router
// order, which is what the serial step does — also after a sharded
// simulator was Closed back to serial stepping.
func (t *WaitTable[W]) Parts() int { return len(t.parts) }

// partOf locates the part owning a router.
func (t *WaitTable[W]) partOf(router int32) *waitPart[W] {
	i, j := 0, len(t.parts)-1
	for i < j {
		h := (i + j + 1) / 2
		if t.parts[h].lo <= router {
			i = h
		} else {
			j = h - 1
		}
	}
	return &t.parts[i]
}

// mark records that the router has waiters.
func (p *waitPart[W]) mark(router int32) {
	b := uint(router - p.lo)
	p.words[b>>6] |= 1 << (b & 63)
	p.sum[b>>12] |= 1 << (b >> 6 & 63)
}

// unmark records that the router's last waiter left.
func (p *waitPart[W]) unmark(router int32) {
	b := uint(router - p.lo)
	if p.words[b>>6] &^= 1 << (b & 63); p.words[b>>6] == 0 {
		p.sum[b>>12] &^= 1 << (b >> 6 & 63)
	}
}

// below returns the highest marked router of the part strictly below the
// given one, or -1.
func (p *waitPart[W]) below(router int32) int32 {
	b := uint(router - p.lo)
	wi := int(b >> 6)
	w := p.words[wi] & (1<<(b&63) - 1)
	if w == 0 {
		si := wi >> 6
		s := p.sum[si] & (1<<(uint(wi)&63) - 1)
		for s == 0 {
			if si--; si < 0 {
				return -1
			}
			s = p.sum[si]
		}
		wi = si<<6 + 63 - bits.LeadingZeros64(s)
		w = p.words[wi]
	}
	return p.lo + int32(wi<<6+63-bits.LeadingZeros64(w))
}

// Enlist files a header that just entered a buffer of the router: within
// the router's run, before every waiter with a larger (key, id). key is the
// input policy's priority and id the packet ID; both must stay fixed until
// the link is delisted. When domains run concurrently, only the router's
// own domain may enlist under it.
func (t *WaitTable[W]) Enlist(l *WaitLink[W], router int32, key, id int64) {
	if l.listed {
		panic("engine: header enlisted twice")
	}
	l.router, l.key, l.id, l.listed = router, key, id, true
	p := t.partOf(router)
	// pred is the link l goes after; nil puts l first in the part.
	var pred *WaitLink[W]
	if h := t.head[router]; h == nil {
		// First waiter at this router: it follows the run of the nearest
		// lower router that has waiters.
		p.mark(router)
		if r := p.below(router); r >= 0 {
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
		l.next, p.first = p.first, l
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
		t.unlink(t.partOf(l.router), l)
	}
}

func (t *WaitTable[W]) unlink(p *waitPart[W], l *WaitLink[W]) {
	if l.prev == nil {
		p.first = l.next
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
			p.unmark(l.router)
		}
	}
	l.next, l.prev, l.listed = nil, nil, false
}

// WaitCursor walks one part of the table: routers ascending, each router's
// waiters in service order.
//
//	for it := t.Walk(d); it.Next(); {
//		w := it.Waiter()
//		...
//		it.Delist() // granted, or at its destination
//	}
//
// During a walk the part may be changed only through the cursor's Delist.
type WaitCursor[W any] struct {
	t         *WaitTable[W]
	p         *waitPart[W]
	cur, next *WaitLink[W]
}

// Walk starts a walk over part d.
func (t *WaitTable[W]) Walk(d int) WaitCursor[W] {
	p := &t.parts[d]
	return WaitCursor[W]{t: t, p: p, next: p.first}
}

// Next advances to the next waiter and reports whether there is one.
func (c *WaitCursor[W]) Next() bool {
	if c.cur = c.next; c.cur == nil {
		return false
	}
	c.next = c.cur.next
	return true
}

// Waiter returns the current waiter's owner.
func (c *WaitCursor[W]) Waiter() W { return c.cur.Owner }

// Delist takes the current waiter out of the table; the walk continues
// with its successor.
func (c *WaitCursor[W]) Delist() { c.t.unlink(c.p, c.cur) }
