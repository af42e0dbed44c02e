package main

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// clock is the time source of the open-loop generator; tests drive it with
// a fake.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// realClock is the wall clock; a cancelled context cuts its sleeps short,
// so an interrupted run drains its schedule at once.
type realClock struct{ ctx context.Context }

func (realClock) Now() time.Time { return time.Now() }

func (c realClock) Sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.ctx.Done():
	}
}

// arrivalSchedule returns n arrival offsets over the span: the span is cut
// into n equal slots and one arrival placed uniformly at random in each.
// Arrivals stay independent of completions (an open loop) and irregular,
// but the count in any stretch of the run is the same on every seed, which
// a Poisson process does not give: at the workload's utilisation its
// clumps, not the service, would decide the latency percentiles of a run
// this short.
func arrivalSchedule(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	slot := float64(span) / float64(n)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + rng.Float64()) * slot)
	}
	return out
}

// jobTiming is when job i was due, when a connection actually took it and
// when its last step returned, all as offsets from the start of the run.
type jobTiming struct {
	Due, Issued, Done time.Duration
	// OnTime marks a job whose connection was idle before the due time: it
	// slept until then, so Issued-Due is the generator's own lateness. A
	// job that is not on time waited for a busy connection; that wait is
	// part of its latency (timed from Due) and not the generator's fault.
	OnTime bool
}

// openLoop issues job i at schedule[i] whether or not earlier jobs have
// finished, over at most conns connections: each connection takes the next
// job in schedule order, sleeps until it is due if it is not yet, and runs
// it. A job due while every connection is busy waits in the generator and
// is still timed from its due time.
func openLoop(clk clock, schedule []time.Duration, conns int, do func(conn, job int)) []jobTiming {
	timings := make([]jobTiming, len(schedule))
	start := clk.Now()
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(schedule) {
					return
				}
				t := &timings[i]
				t.Due = schedule[i]
				if wait := t.Due - clk.Now().Sub(start); wait > 0 {
					clk.Sleep(wait)
					t.OnTime = true
				}
				t.Issued = clk.Now().Sub(start)
				do(c, i)
				t.Done = clk.Now().Sub(start)
			}
		}(c)
	}
	wg.Wait()
	return timings
}

// generatorLatenessMs lists, for the jobs issued on time, how late the
// generator was against its schedule.
func generatorLatenessMs(timings []jobTiming) []float64 {
	var late []float64
	for _, t := range timings {
		if t.OnTime {
			late = append(late, float64(t.Issued-t.Due)/float64(time.Millisecond))
		}
	}
	return late
}

// backlogAtEnd counts the jobs still waiting in the generator when the
// last job became due. An open loop the system keeps up with ends with
// none; a backlog that grows with the run length means the offered rate
// is beyond what the system sustains.
func backlogAtEnd(timings []jobTiming) int {
	if len(timings) == 0 {
		return 0
	}
	last := timings[len(timings)-1].Due
	n := 0
	for _, t := range timings[:len(timings)-1] {
		if t.Issued > last {
			n++
		}
	}
	return n
}
