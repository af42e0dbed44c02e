package engine

// Timers is where whatever waits for a cycle, rather than for a release,
// sleeps: a binary min-heap of values keyed by the cycle they are due at,
// entries due at the same cycle leaving in the order they were pushed. The
// engines keep one per kind of sleeper, and the pop order — (cycle, push
// sequence) — is deterministic.
//
// The zero value is an empty set of timers. It grows on demand and never
// shrinks, so once it has held its peak population it allocates nothing.
type Timers[T any] struct {
	heap []timer[T]
	seq  uint64
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
func (t *Timers[T]) Len() int { return len(t.heap) }

// Push arms a timer: v becomes due at cycle at.
func (t *Timers[T]) Push(at int64, v T) {
	t.heap = append(t.heap, timer[T]{at: at, seq: t.seq, v: v})
	t.seq++
	h := t.heap
	i := len(h) - 1
	e := h[i]
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

// PopDue removes and returns the earliest timer if it is due at or before
// now. Calling it until it reports false drains exactly the timers due by
// now, in (cycle, push) order; timers pushed meanwhile take their place in
// that order.
func (t *Timers[T]) PopDue(now int64) (v T, ok bool) {
	h := t.heap
	if len(h) == 0 || h[0].at > now {
		return v, false
	}
	v = h[0].v
	last := len(h) - 1
	e := h[last]
	h[last] = timer[T]{} // drop the reference the vacated slot holds
	h = h[:last]
	t.heap = h
	if last == 0 {
		return v, true
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
	return v, true
}

// Each calls fn for every pending timer, in no particular order. It is for
// the engines' test oracles; stepping never enumerates the sleepers.
func (t *Timers[T]) Each(fn func(at int64, v T)) {
	for i := range t.heap {
		fn(t.heap[i].at, t.heap[i].v)
	}
}
