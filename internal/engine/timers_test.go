package engine

import (
	"math/rand"
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

// TestTimersZeroAllocsWarm: once the heap has held its peak population,
// pushing and popping allocate nothing, and a popped slot keeps no reference
// to its value.
func TestTimersZeroAllocsWarm(t *testing.T) {
	var timers Timers[*int]
	vals := make([]int, 64)
	cycle := int64(0)
	round := func() {
		for i := range vals {
			timers.Push(cycle+int64(i%7), &vals[i])
		}
		cycle += 7
		for {
			if _, ok := timers.PopDue(cycle); !ok {
				break
			}
		}
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("%v allocations per warm round of 64 pushes and pops, want 0", allocs)
	}
	if timers.Len() != 0 {
		t.Fatalf("%d timers left after draining", timers.Len())
	}
	for i, e := range timers.heap[:cap(timers.heap)] {
		if e.v != nil {
			t.Fatalf("vacated slot %d still points at its value", i)
		}
	}
}
