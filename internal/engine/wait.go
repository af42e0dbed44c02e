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
// every cycle, so grants, probe events and the draws of randomized output
// policies are unchanged.
//
// Each router's waiters form its own run, a doubly linked list in service
// order threaded through links the engines embed in their worms: head
// starts it, and its last link's next is nil. Filing a newcomer touches
// only its own router's run — nearly every newcomer is its router's first
// waiter and just becomes the head. A two-level bitmap of the routers that
// have waiters finds the runs (a second one, of the routers that are awake,
// is described below): a walk takes the routers from a bitmap in ascending
// order and follows each run's next pointers, so a million-node mesh with a
// few thousand sparse waiters costs per waiter about what a 256-node one
// does.
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

// WaitTable holds every header waiting for an output: each router's run,
// the set of routers that have waiters, the set of routers that are awake
// and each router's released outputs (see WalkAwake). It is O(nodes) words
// and allocates nothing after construction.
type WaitTable[W any] struct {
	head     []*WaitLink[W] // router -> its first waiter
	released []uint64       // router -> outputs released since the walk last reached it
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
	t.epoch = 1
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
	h := t.head[router]
	if h == nil || l.before(h) {
		if h == nil {
			t.waiting.add(uint(router))
		} else {
			h.prev = l
		}
		l.prev, l.next, t.head[router] = nil, h, l
		return
	}
	pred := h
	for pred.next != nil && pred.next.before(l) {
		pred = pred.next
	}
	l.prev, l.next = pred, pred.next
	if l.next != nil {
		l.next.prev = l
	}
	pred.next = l
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
	if l.prev != nil {
		l.prev.next = l.next
	} else if t.head[l.router] = l.next; l.next == nil {
		t.waiting.remove(uint(l.router))
	}
	if l.next != nil {
		l.next.prev = l.prev
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

	// routers yields the routers whose runs the walk visits: those with
	// waiters, or for an awake walk the awake ones, taken out of the awake
	// set as they are reached. rel is the outputs released at the router
	// whose run an awake walk is in, taken out of the table when the walk
	// reached it.
	routers routerIter
	rel     uint64
}

// routerIter yields the members of a routerSet in ascending order. With
// take it empties the set as it goes, a word at a time; members added to a
// word it has passed are left for the next walk.
type routerIter struct {
	set    *routerSet
	take   bool
	si, wi int
	sw, ww uint64 // the unvisited bits of summary word si and of word wi
}

// next returns the next member, or -1 when none is left.
func (it *routerIter) next() int {
	for it.ww == 0 {
		if it.sw == 0 {
			// Empty summary words need no taking: skip them in locals.
			sum, si := it.set.sum, it.si+1
			for si < len(sum) && sum[si] == 0 {
				si++
			}
			if it.si = si; si >= len(sum) {
				return -1
			}
			if it.sw = sum[si]; it.take {
				sum[si] = 0
			}
		}
		it.wi = it.si<<6 + bits.TrailingZeros64(it.sw)
		it.sw &= it.sw - 1
		if it.ww = it.set.words[it.wi]; it.take {
			it.set.words[it.wi] = 0
		}
	}
	r := it.wi<<6 + bits.TrailingZeros64(it.ww)
	it.ww &= it.ww - 1
	return r
}

// Walk starts a walk over every waiter. It is the walk of the engines'
// FlushBlocked, which reports every wait under way to a probe, and of the
// tests' oracles; it leaves the awake set and the released outputs alone.
func (t *WaitTable[W]) Walk() WaitCursor[W] {
	return WaitCursor[W]{t: t, routers: routerIter{set: &t.waiting, si: -1}}
}

// WalkAwake starts a walk over the waiters due at the awake routers (see
// Due), and puts each router to sleep as the walk reaches it: unless Keep
// says otherwise, every waiter it still has after the walk was offered and
// refused, and stays refused until an output it wants is released or the
// fault set changes.
func (t *WaitTable[W]) WalkAwake() WaitCursor[W] {
	return WaitCursor[W]{t: t, routers: routerIter{set: &t.awake, take: true, si: -1}}
}

// Next advances to the next waiter and reports whether there is one.
func (c *WaitCursor[W]) Next() bool {
	awake, epoch := c.routers.take, c.t.epoch
	for {
		l := c.next
		if l == nil {
			r := c.routers.next()
			if r < 0 {
				c.cur = nil
				return false
			}
			if awake {
				c.rel, c.t.released[r] = c.t.released[r], 0
			}
			c.next = c.t.head[r]
			continue
		}
		c.next = l.next
		if awake {
			if l.offered == epoch && l.wants&c.rel == 0 {
				continue
			}
			l.offered = epoch
		}
		c.cur = l
		return true
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
