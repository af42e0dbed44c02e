package engine

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// timerModel is the oracle: every pending timer in push order, the due ones
// taken by a stable sort on the cycle — (cycle, push sequence) order.
type timerModel struct {
	pending []modelTimer
}

type modelTimer struct {
	at int64
	v  int
}

func (m *timerModel) push(at int64, v int) { m.pending = append(m.pending, modelTimer{at, v}) }

// popDue removes and returns everything due by now, in the order Timers must
// hand it out.
func (m *timerModel) popDue(now int64) []int {
	sort.SliceStable(m.pending, func(i, j int) bool { return m.pending[i].at < m.pending[j].at })
	var due []int
	for len(m.pending) > 0 && m.pending[0].at <= now {
		due = append(due, m.pending[0].v)
		m.pending = m.pending[1:]
	}
	return due
}

// TestTimersMatchStableSort drives Timers and the model through random
// schedules: bursts of pushes — many on the same cycle, some already due,
// some far ahead — between clock advances of random size, every due timer
// popped at each stop.
func TestTimersMatchStableSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var timers Timers[int]
		var model timerModel
		next := 0
		now := int64(0)
		for step := 0; step < 400; step++ {
			for k := rng.Intn(6); k > 0; k-- {
				at := now + int64(rng.Intn(12)) - 2 // a few land in the past
				if rng.Intn(10) == 0 {
					at = now + 1000 + int64(rng.Intn(3))
				}
				timers.Push(at, next)
				model.push(at, next)
				next++
			}
			if timers.Len() != len(model.pending) {
				t.Fatalf("seed %d step %d: Len() = %d, the model holds %d", seed, step, timers.Len(), len(model.pending))
			}
			now += int64(rng.Intn(4))
			want := model.popDue(now)
			for i, w := range want {
				got, ok := timers.PopDue(now)
				if !ok || got != w {
					t.Fatalf("seed %d step %d cycle %d: pop %d returned %d (ok=%v), the stable sort says %d", seed, step, now, i, got, ok, w)
				}
			}
			if got, ok := timers.PopDue(now); ok {
				t.Fatalf("seed %d step %d cycle %d: popped %d, which is not due", seed, step, now, got)
			}
		}
		seen := 0
		timers.Each(func(at int64, v int) {
			seen++
			if at <= now {
				t.Fatalf("seed %d: Each shows %d due at %d, before cycle %d", seed, v, at, now)
			}
		})
		if seen != timers.Len() || seen != len(model.pending) {
			t.Fatalf("seed %d: Each visited %d timers, Len() = %d, the model holds %d", seed, seen, timers.Len(), len(model.pending))
		}
	}
}

// TestTimersPopWhilePushing is the recovery phase's pattern: while the due
// timers are being popped, some are re-armed for a later cycle and some for
// this very cycle. A timer pushed for the current cycle during the drain
// comes out in the same drain, after everything due that was pushed before
// it; one pushed for later does not.
func TestTimersPopWhilePushing(t *testing.T) {
	var timers Timers[string]
	timers.Push(5, "a")
	timers.Push(5, "b")
	timers.Push(3, "early")
	timers.Push(9, "late")
	var got []string
	for {
		v, ok := timers.PopDue(5)
		if !ok {
			break
		}
		got = append(got, v)
		switch v {
		case "early":
			timers.Push(5, "rearmed-now")
		case "a":
			timers.Push(6, "rearmed-later")
		}
	}
	want := []string{"early", "a", "b", "rearmed-now"}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
	if timers.Len() != 2 {
		t.Fatalf("%d timers left, want the two due later", timers.Len())
	}
	if v, ok := timers.PopDue(6); !ok || v != "rearmed-later" {
		t.Fatalf("cycle 6 popped %q (ok=%v), want rearmed-later", v, ok)
	}
	if _, ok := timers.PopDue(8); ok {
		t.Fatal("cycle 8 popped the timer due at 9")
	}
}

// TestTimersZeroAllocsWarm: once the timers have held their peak population,
// pushing and popping allocate nothing, and a popped entry — on the wheel or
// in the overflow heap — keeps no reference to its value.
func TestTimersZeroAllocsWarm(t *testing.T) {
	var timers Timers[*int]
	vals := make([]int, 64)
	cycle := int64(0)
	round := func() {
		for i := range vals {
			timers.Push(cycle+int64(i%7), &vals[i])
			if i%8 == 0 {
				timers.Push(cycle+wheelSize+int64(i), &vals[i]) // overflow
			}
		}
		cycle += 7 + wheelSize + 64
		for {
			if _, ok := timers.PopDue(cycle); !ok {
				break
			}
		}
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("%v allocations per warm round of 72 pushes and pops, want 0", allocs)
	}
	if timers.Len() != 0 {
		t.Fatalf("%d timers left after draining", timers.Len())
	}
	for i, e := range timers.nodes {
		if e.v != nil {
			t.Fatalf("vacated wheel entry %d still points at its value", i)
		}
	}
	for i, e := range timers.over[:cap(timers.over)] {
		if e.v != nil {
			t.Fatalf("vacated overflow slot %d still points at its value", i)
		}
	}
}

// next is the model's Next: the earliest pending cycle, or math.MaxInt64.
func (m *timerModel) next() int64 {
	next := int64(math.MaxInt64)
	for _, e := range m.pending {
		next = min(next, e.at)
	}
	return next
}

// TestTimersBeyondSpan drives Timers and the model through schedules that
// spread timers over many wheel spans — some on the wheel, most in the
// overflow heap, some pushed into the past — with clock advances that
// cross whole spans, checking Next against the model before every drain.
func TestTimersBeyondSpan(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var timers Timers[int]
		var model timerModel
		next, both := 0, 0
		now := int64(0)
		for step := 0; step < 300; step++ {
			for k := rng.Intn(8); k > 0; k-- {
				var at int64
				switch rng.Intn(4) {
				case 0:
					at = now + int64(rng.Intn(4*wheelSize)) // mostly beyond the span
				case 1:
					at = now + wheelSize - 1 + int64(rng.Intn(3)) // the span's edge
				case 2:
					at = now - int64(rng.Intn(3)) // due already
				default:
					at = now + 1 + int64(rng.Intn(20))
				}
				timers.Push(at, next)
				model.push(at, next)
				next++
			}
			if got, want := timers.Next(), model.next(); got != want {
				t.Fatalf("seed %d step %d cycle %d: Next() = %d, the model says %d", seed, step, now, got, want)
			}
			if timers.inWheel > 0 && len(timers.over) > 0 {
				both++
			}
			if rng.Intn(5) == 0 {
				now += int64(rng.Intn(3 * wheelSize))
			} else {
				now += int64(rng.Intn(40))
			}
			want := model.popDue(now)
			for i, w := range want {
				got, ok := timers.PopDue(now)
				if !ok || got != w {
					t.Fatalf("seed %d step %d cycle %d: pop %d returned %d (ok=%v), the stable sort says %d", seed, step, now, i, got, ok, w)
				}
			}
			if got, ok := timers.PopDue(now); ok {
				t.Fatalf("seed %d step %d cycle %d: popped %d, which is not due", seed, step, now, got)
			}
			if timers.Len() != len(model.pending) {
				t.Fatalf("seed %d step %d: Len() = %d, the model holds %d", seed, step, timers.Len(), len(model.pending))
			}
		}
		if both < 100 {
			t.Fatalf("seed %d: only %d drains found timers both on the wheel and in the overflow heap", seed, both)
		}
	}
}

// TestTimersSameCycleAcrossOverflow: timers due at one cycle leave in push
// order although the first were pushed while that cycle lay beyond the
// wheel's span, into the overflow heap, and the later ones once the clock had
// come close enough for them to go onto the wheel.
func TestTimersSameCycleAcrossOverflow(t *testing.T) {
	var timers Timers[string]
	const due = 3 * wheelSize
	timers.Push(due, "far-1")
	timers.Push(due+1, "after")
	timers.Push(due, "far-2")
	if len(timers.over) != 3 {
		t.Fatalf("%d timers in the overflow heap, want all three", len(timers.over))
	}
	if _, ok := timers.PopDue(due - 10); ok {
		t.Fatal("a timer came out ten cycles early")
	}
	timers.Push(due, "near-1")
	timers.Push(due-1, "before")
	timers.Push(due, "near-2")
	if timers.inWheel != 3 {
		t.Fatalf("%d timers on the wheel, want the three pushed near their cycle", timers.inWheel)
	}
	var got []string
	for {
		v, ok := timers.PopDue(due + 1)
		if !ok {
			break
		}
		got = append(got, v)
		if v == "far-2" {
			timers.Push(due, "rearmed") // during the drain, for the cycle being drained
		}
	}
	want := []string{"before", "far-1", "far-2", "near-1", "near-2", "rearmed", "after"}
	if !slices.Equal(got, want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
}

// TestTimersPushAfterLeap: after the clock leaps many spans past an empty
// wheel, timers pushed a few cycles ahead of the new time go onto the wheel,
// not the overflow heap, and come out on their cycles.
func TestTimersPushAfterLeap(t *testing.T) {
	var timers Timers[int]
	timers.Push(5, 1)
	if v, ok := timers.PopDue(5); !ok || v != 1 {
		t.Fatalf("PopDue(5) = %d, %v", v, ok)
	}
	now := int64(1000 * wheelSize)
	if _, ok := timers.PopDue(now); ok {
		t.Fatal("an empty set popped a timer")
	}
	for i := 1; i <= 4; i++ {
		timers.Push(now+int64(i), i)
	}
	if len(timers.over) != 0 {
		t.Fatalf("%d timers in the overflow heap after the leap, want none", len(timers.over))
	}
	for i := 1; i <= 4; i++ {
		if _, ok := timers.PopDue(now + int64(i) - 1); ok {
			t.Fatalf("timer %d came out a cycle early", i)
		}
		if v, ok := timers.PopDue(now + int64(i)); !ok || v != i {
			t.Fatalf("cycle %d popped %d (ok=%v), want %d", now+int64(i), v, ok, i)
		}
	}
	// A leap that lands while a timer is pending on the wheel stops at it.
	timers.Push(now+100, 7)
	timers.Push(now+100+2*wheelSize, 8)
	if v, ok := timers.PopDue(now + 100 + 3*wheelSize); !ok || v != 7 {
		t.Fatalf("after a leap over two timers popped %d (ok=%v), want 7 first", v, ok)
	}
	if v, ok := timers.PopDue(now + 100 + 3*wheelSize); !ok || v != 8 {
		t.Fatalf("after a leap over two timers popped %d (ok=%v), want 8 second", v, ok)
	}
}

// TestTimersNext: Next reports the earliest pending cycle — on the wheel or
// in the overflow heap — and math.MaxInt64 when nothing is pending; it does
// not disturb what PopDue returns.
func TestTimersNext(t *testing.T) {
	var timers Timers[int]
	if got := timers.Next(); got != math.MaxInt64 {
		t.Fatalf("empty: Next() = %d, want math.MaxInt64", got)
	}
	timers.Push(5*wheelSize, 1)
	if got := timers.Next(); got != 5*wheelSize {
		t.Fatalf("overflow only: Next() = %d, want %d", got, 5*wheelSize)
	}
	timers.Push(700, 2)
	timers.Push(300, 3)
	if got := timers.Next(); got != 300 {
		t.Fatalf("Next() = %d, want 300", got)
	}
	if _, ok := timers.PopDue(299); ok {
		t.Fatal("popped before 300")
	}
	if got := timers.Next(); got != 300 {
		t.Fatalf("after an early PopDue: Next() = %d, want 300", got)
	}
	if v, _ := timers.PopDue(300); v != 3 {
		t.Fatalf("PopDue(300) = %d, want 3", v)
	}
	if got := timers.Next(); got != 700 {
		t.Fatalf("Next() = %d, want 700", got)
	}
	if v, _ := timers.PopDue(4000); v != 2 {
		t.Fatalf("PopDue(4000) = %d, want 2", v)
	}
	if got := timers.Next(); got != 5*wheelSize {
		t.Fatalf("Next() = %d, want %d", got, 5*wheelSize)
	}
	timers.Push(4000, 4) // overdue relative to the cursor: into the heap
	if got := timers.Next(); got != 4000 {
		t.Fatalf("Next() = %d, want the overdue 4000", got)
	}
}
