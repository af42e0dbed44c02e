package engine

import (
	"math"
	"math/bits"
	"slices"
)

// The wheel covers wheelSize consecutive cycles, one bucket each.
const (
	wheelBits  = 10
	wheelSize  = 1 << wheelBits
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// Timers is where whatever waits for a cycle, rather than for a release,
// sleeps: values keyed by the cycle they are due at, entries due at the same
// cycle leaving in the order they were pushed. The engines keep one per kind
// of sleeper, and message generation one for the nodes' next arrivals; the
// pop order — (cycle, push sequence) — is deterministic.
//
// It is a calendar wheel: a timer due within wheelSize cycles of the wheel's
// cursor goes into that cycle's bucket, a FIFO list threaded through a
// shared pool of entries, so Push and PopDue cost O(1) and a bitmap of the
// busy buckets finds the next one a word at a time. A timer due beyond the
// wheel's span, or before its cursor, goes into an overflow min-heap on
// (cycle, push sequence) instead, and PopDue takes whichever of the two
// heads comes first in that order — timers never migrate, so a cycle's
// timers leave in push order whichever side each was parked on.
//
// The zero value is an empty set of timers. The buckets are allocated by
// the first push that lands on the wheel; the entry pool and the heap grow
// on demand and never shrink, so once the timers have held their peak
// population they allocate nothing — across Reset too, which empties them
// and keeps the storage.
type Timers[T any] struct {
	// buckets[c&wheelMask] holds the timers due at cycle c, for every c in
	// [cur, cur+wheelSize), as a circular list through nodes: the bucket
	// indexes its tail, whose next is its head, and 0 marks it empty
	// (nodes[0] is never used). busy has a bucket's bit set while it holds
	// any; free heads the list of unused nodes; inWheel counts the timers
	// on the wheel.
	buckets []int32
	busy    [wheelWords]uint64
	nodes   []wheelTimer[T]
	free    int32
	cur     int64
	inWheel int
	// over is the overflow min-heap.
	over []timer[T]
	seq  uint64
	// lo is a lower bound on every pending timer's cycle — exact when a
	// PopDue last found nothing due, lowered by each push since — so that
	// a PopDue before it returns at once.
	lo int64
}

type wheelTimer[T any] struct {
	timer[T]
	next int32
}

type timer[T any] struct {
	at  int64
	seq uint64
	v   T
}

func (a *timer[T]) before(b *timer[T]) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Len reports how many timers are pending.
func (t *Timers[T]) Len() int { return t.inWheel + len(t.over) }

// Push arms a timer: v becomes due at cycle at.
func (t *Timers[T]) Push(at int64, v T) {
	e := timer[T]{at: at, seq: t.seq, v: v}
	t.seq++
	t.lo = min(t.lo, at)
	if at < t.cur || at-t.cur >= wheelSize {
		t.pushOver(e)
		return
	}
	if len(t.buckets) == 0 {
		// The first push onto the wheel since construction or Reset, which
		// left the storage it kept zeroed.
		if cap(t.nodes) == 0 {
			t.nodes = make([]wheelTimer[T], 0, 64)
		}
		t.buckets = slices.Grow(t.buckets, wheelSize)[:wheelSize]
		t.nodes = append(t.nodes, wheelTimer[T]{})
	}
	i := t.free
	if i != 0 {
		t.free = t.nodes[i].next
	} else {
		i = int32(len(t.nodes))
		t.nodes = append(t.nodes, wheelTimer[T]{})
	}
	t.nodes[i] = wheelTimer[T]{timer: e, next: i}
	k := at & wheelMask
	if tail := t.buckets[k]; tail == 0 {
		t.busy[k>>6] |= 1 << (k & 63)
	} else {
		t.nodes[i].next, t.nodes[tail].next = t.nodes[tail].next, i
	}
	t.buckets[k] = i
	t.inWheel++
}

// Reset empties the timers: afterwards they behave as the zero value does,
// with the buckets, entry pool and heap storage kept for reuse.
func (t *Timers[T]) Reset() {
	clear(t.buckets)
	clear(t.nodes)
	clear(t.over)
	*t = Timers[T]{buckets: t.buckets[:0], nodes: t.nodes[:0], over: t.over[:0]}
}

// PopDue removes and returns the earliest timer if it is due at or before
// now. Calling it until it reports false drains exactly the timers due by
// now, in (cycle, push) order; timers pushed meanwhile take their place in
// that order.
func (t *Timers[T]) PopDue(now int64) (v T, ok bool) {
	if now < t.lo {
		return v, false
	}
	c, onWheel := t.advance(now)
	if len(t.over) > 0 && t.over[0].at <= now &&
		(!onWheel || t.over[0].before(&t.nodes[t.head(c&wheelMask)].timer)) {
		return t.popOver(), true
	}
	if !onWheel {
		t.lo = t.Next()
		return v, false
	}
	k := c & wheelMask
	tail, i := t.buckets[k], t.head(k)
	n := &t.nodes[i]
	v = n.v
	if i == tail {
		t.buckets[k] = 0
		t.busy[k>>6] &^= 1 << (k & 63)
	} else {
		t.nodes[tail].next = n.next
	}
	*n = wheelTimer[T]{next: t.free} // drop the reference the vacated entry holds
	t.free = i
	t.inWheel--
	return v, true
}

// head is the entry at the front of busy bucket k: its tail's next.
func (t *Timers[T]) head(k int64) int32 { return t.nodes[t.buckets[k]].next }

// advance moves the wheel's cursor over empty buckets, never past limit+1,
// and reports the cycle of the earliest busy bucket if that is at or before
// limit. The cursor only moves over buckets that are empty, so every timer on
// the wheel stays in its window.
func (t *Timers[T]) advance(limit int64) (int64, bool) {
	if t.inWheel == 0 {
		if t.cur <= limit {
			t.cur = limit + 1
		}
		return 0, false
	}
	for t.cur <= limit {
		k := t.cur & wheelMask
		if w := t.busy[k>>6] >> (k & 63); w != 0 {
			if c := t.cur + int64(bits.TrailingZeros64(w)); c <= limit {
				t.cur = c
				return c, true
			}
			t.cur = limit + 1
			return 0, false
		}
		if t.cur += 64 - k&63; t.cur > limit {
			t.cur = limit + 1
		}
	}
	return 0, false
}

// Next reports the cycle the earliest pending timer is due at, or
// math.MaxInt64 when none is pending.
func (t *Timers[T]) Next() int64 {
	next := int64(math.MaxInt64)
	if len(t.over) > 0 {
		next = t.over[0].at
	}
	if t.inWheel == 0 {
		return next
	}
	for c := t.cur; c < next; {
		k := c & wheelMask
		if w := t.busy[k>>6] >> (k & 63); w != 0 {
			return min(next, c+int64(bits.TrailingZeros64(w)))
		}
		c += 64 - k&63
	}
	return next
}

// Each calls fn for every pending timer, in no particular order. It is for
// the engines' test oracles; stepping never enumerates the sleepers.
func (t *Timers[T]) Each(fn func(at int64, v T)) {
	for _, tail := range t.buckets {
		if tail == 0 {
			continue
		}
		for i := t.nodes[tail].next; ; i = t.nodes[i].next {
			fn(t.nodes[i].at, t.nodes[i].v)
			if i == tail {
				break
			}
		}
	}
	for i := range t.over {
		fn(t.over[i].at, t.over[i].v)
	}
}

// pushOver files a timer on the overflow heap.
func (t *Timers[T]) pushOver(e timer[T]) {
	t.over = append(t.over, e)
	h := t.over
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// popOver removes and returns the overflow heap's earliest timer.
func (t *Timers[T]) popOver() T {
	h := t.over
	v := h[0].v
	last := len(h) - 1
	e := h[last]
	h[last] = timer[T]{} // drop the reference the vacated slot holds
	h = h[:last]
	t.over = h
	if last == 0 {
		return v
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if r := child + 1; r < last && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
	return v
}
