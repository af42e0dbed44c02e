package engine

// White-box tests of the event clock: EndStep may leap the cycle counter
// only to the earliest of the injection horizon, the next retry-backoff
// expiry, and the next fault transition — and never past any of them. The
// cross-mode differential harness (skip_diff_test.go) proves the clock
// modes equivalent end to end; these tests pin the leap bound itself, one
// ingredient at a time, directly on a Core.

import (
	"math"
	"testing"

	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/topology"
)

func newSkipCore(t *testing.T, cfg Config) *Core {
	t.Helper()
	if cfg.Topo == nil {
		cfg.Topo = topology.NewMesh(4, 4)
	}
	c := NewCore(cfg)
	c.Bind()
	// Every injection buffer is free: the cases place no worm.
	c.InjFree = func(topology.NodeID) bool { return true }
	return &c
}

// addRetry plants an aborted packet waiting out its backoff at the node,
// the way FinishAbort would.
func addRetry(c *Core, node topology.NodeID, at int64) {
	c.retries[node] = append(c.retries[node], retryEntry{p: &Packet{Src: node}, at: at})
	c.retryCount++
	c.addPending(int32(node))
}

// TestEndStepLeapBounds drives one EndStep from cycle 0 under every
// combination of promise, pending retry timer, clock mode and residual
// work, and pins exactly where the cycle counter lands. The retry rows are
// the heart of it: a leap must stop at the earliest backoff expiry — a
// clock that jumps past a retry timer would reinject the packet late and
// change delivery schedules.
func TestEndStepLeapBounds(t *testing.T) {
	cases := []struct {
		name    string
		horizon int64
		retryAt int64 // 0: no retry pending
		disable bool
		queued  bool
		active  int
		want    int64 // Cycle after one EndStep
	}{
		{name: "no promise", horizon: 0, want: 1},
		{name: "horizon alone", horizon: 500, want: 500},
		{name: "retry before horizon", horizon: 500, retryAt: 120, want: 120},
		{name: "retry due next cycle", horizon: 500, retryAt: 1, want: 1},
		{name: "retry after horizon", horizon: 300, retryAt: 450, want: 300},
		{name: "earliest of two retries", horizon: 500, retryAt: 80, want: 60},
		{name: "skipping disabled", horizon: 500, disable: true, want: 1},
		{name: "queued packet blocks", horizon: 500, queued: true, want: 1},
		{name: "active worms block", horizon: 500, active: 2, want: 1},
		{name: "stale horizon", horizon: -5, want: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newSkipCore(t, Config{
				Recovery:         fault.Recovery{Enabled: true},
				DisableEventSkip: tc.disable,
			})
			if tc.retryAt > 0 {
				addRetry(c, 3, tc.retryAt)
			}
			if tc.name == "earliest of two retries" {
				addRetry(c, 9, 60) // second, earlier timer on another node
			}
			if tc.queued {
				c.Enqueue(0, 5, 2)
			}
			c.SetInjectionHorizon(tc.horizon)
			if dead := c.EndStep(true, tc.active); dead {
				t.Fatal("EndStep reported deadlock")
			}
			if c.Cycle != tc.want {
				t.Fatalf("Cycle = %d, want %d", c.Cycle, tc.want)
			}
			wantSkipped := int64(0)
			if tc.want > 1 {
				wantSkipped = tc.want - 1
			}
			if c.CyclesSkipped() != wantSkipped {
				t.Errorf("CyclesSkipped = %d, want %d", c.CyclesSkipped(), wantSkipped)
			}
			if wantLeaps := int64(0); wantSkipped > 0 {
				wantLeaps = 1
				if c.Leaps() != wantLeaps {
					t.Errorf("Leaps = %d, want %d", c.Leaps(), wantLeaps)
				}
			} else if c.Leaps() != 0 {
				t.Errorf("Leaps = %d, want 0", c.Leaps())
			}
		})
	}
}

// TestEndStepLeapStopsAtFaultEvent pins the third leap bound: a random
// fault process with pending transitions caps every leap at the next
// scheduled failure or repair, so FaultPhase applies it at exactly the
// cycle a stepped run would.
func TestEndStepLeapStopsAtFaultEvent(t *testing.T) {
	c := newSkipCore(t, Config{FaultPlan: fault.Plan{Rate: 1e-3, Repair: 50, Seed: 3}})
	next := c.Faults.NextEventCycle()
	if next == math.MaxInt64 {
		t.Fatal("fault plan scheduled no events")
	}
	c.SetInjectionHorizon(next + 10000)
	c.EndStep(true, 0)
	want := next
	if want < 1 {
		want = 1
	}
	if c.Cycle != want {
		t.Fatalf("Cycle = %d, want the fault event cycle %d", c.Cycle, want)
	}
	// A horizon below the event wins instead.
	c2 := newSkipCore(t, Config{FaultPlan: fault.Plan{Rate: 1e-6, Repair: 50, Seed: 3}})
	far := c2.Faults.NextEventCycle()
	if far < 100 {
		t.Fatalf("low-rate plan scheduled an event implausibly early (cycle %d)", far)
	}
	c2.SetInjectionHorizon(far - 10)
	c2.EndStep(true, 0)
	if c2.Cycle != far-10 {
		t.Fatalf("Cycle = %d, want the horizon %d", c2.Cycle, far-10)
	}
}

// TestLeapCountersAccumulate: consecutive leaps sum their skipped cycles
// and count individually, and a withdrawn horizon stops further leaping.
func TestLeapCountersAccumulate(t *testing.T) {
	c := newSkipCore(t, Config{})
	c.SetInjectionHorizon(100)
	c.EndStep(true, 0) // 0 -> 1, leap to 100
	c.SetInjectionHorizon(250)
	c.EndStep(true, 0)       // 100 -> 101, leap to 250
	c.SetInjectionHorizon(0) // promise withdrawn
	c.EndStep(true, 0)       // plain step to 251
	if c.Cycle != 251 {
		t.Fatalf("Cycle = %d, want 251", c.Cycle)
	}
	if c.Leaps() != 2 || c.CyclesSkipped() != 99+149 {
		t.Fatalf("Leaps/CyclesSkipped = %d/%d, want 2/248", c.Leaps(), c.CyclesSkipped())
	}
}

// TestTickEmptyChargesEveryCycle: a leap forwards one probe Tick per
// skipped cycle, in order, so collectors sample occupancy over leaps
// exactly as over stepped idle cycles.
func TestTickEmptyChargesEveryCycle(t *testing.T) {
	var ticks []int64
	em := NewEmitter(tickRecorder{ticks: &ticks})
	em.TickEmpty(7, 3)
	want := []int64{7, 8, 9}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

// tickRecorder is a probe that records only Tick cycles.
type tickRecorder struct {
	metrics.NopProbe
	ticks *[]int64
}

func (r tickRecorder) Tick(cycle int64) { *r.ticks = append(*r.ticks, cycle) }
