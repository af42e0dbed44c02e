package engine_test

// The cross-mode differential harness: the same workload is driven through
// a stepped engine (DisableEventSkip, every cycle executed individually)
// and through an event-driven engine that leaps the clock over provably
// idle cycles. Event-driven cycle skipping is an execution strategy, not a
// model change, so every observable must be bit-identical: per-packet
// injection and delivery cycles, hop counts, abort counts, counter totals,
// and the outcome of every step — for every registered algorithm and for
// the faulted, recovery, fault-masking and random fault-process
// configurations. Sparse workloads additionally assert that leaps actually
// happened, so the equivalence is not vacuous.

import (
	"fmt"
	"math/rand"
	"testing"

	"turnmodel/internal/fault"
	"turnmodel/internal/network"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/vc"
	"turnmodel/internal/vcnet"
)

// simEngine is the slice of the simulator surface the harness drives and
// compares; both network.Network and vcnet.Network implement it.
type simEngine interface {
	Enqueue(src, dst topology.NodeID, length int) *network.Packet
	Step() error
	TakeDelivered() []*network.Packet
	InFlight() int
	PacketsDelivered() int64
	FlitsConsumed() int64
	PacketsAborted() int64
	PacketsRetried() int64
	PacketsDropped() int64
	FaultEvents() int64
	MaskedFaults() int64
	MisrouteHops() int64
	MaxQueueLen() int
	Cycle() int64
	SetInjectionHorizon(cycle int64)
	CyclesSkipped() int64
	Close()
}

// delivery is one delivered packet as observed from outside the engine.
type delivery struct {
	cycle             int64
	id                int64
	injected, arrived int64
	hops, aborts      int
}

// runTotals are the end-of-run counters compared across clock modes.
type runTotals struct {
	Delivered, Flits, Aborted, Retried, Dropped int64
	FaultEvents, Masked, Misroutes              int64
	MaxQueue, InFlight                          int
}

func totalsOf(e simEngine) runTotals {
	return runTotals{
		Delivered: e.PacketsDelivered(), Flits: e.FlitsConsumed(),
		Aborted: e.PacketsAborted(), Retried: e.PacketsRetried(),
		Dropped: e.PacketsDropped(), FaultEvents: e.FaultEvents(),
		Masked: e.MaskedFaults(), Misroutes: e.MisrouteHops(),
		MaxQueue: e.MaxQueueLen(), InFlight: e.InFlight(),
	}
}

// trace is the full observable history of one run.
type trace struct {
	deliveries []delivery
	stepErr    string // non-empty if a step deadlocked, ending the run
	errCycle   int64
	totals     runTotals
}

// runTrace drives one engine over the case's schedule cycle by cycle and
// records everything observable.
func runTrace(t *testing.T, c diffCase, e simEngine, sched []injection) trace {
	t.Helper()
	return runTraceClosing(t, c, e, sched, -1)
}

// runTraceClosing is runTrace with a call to the engine's Close before the
// step of cycle closeAt; a negative closeAt never closes it.
func runTraceClosing(t *testing.T, c diffCase, e simEngine, sched []injection, closeAt int64) trace {
	t.Helper()
	var tr trace
	next := 0
	drain := c.cycles + 20000
	for cycle := int64(0); cycle < drain; cycle++ {
		if cycle == closeAt {
			e.Close()
		}
		for next < len(sched) && sched[next].cycle == cycle {
			in := sched[next]
			e.Enqueue(in.src, in.dst, in.length)
			next++
		}
		if err := e.Step(); err != nil {
			tr.stepErr = err.Error()
			tr.errCycle = cycle
			break
		}
		for _, p := range e.TakeDelivered() {
			tr.deliveries = append(tr.deliveries, delivery{
				cycle: cycle, id: p.ID, injected: p.Injected, arrived: p.Arrived,
				hops: p.Hops, aborts: p.Aborts,
			})
		}
		if next == len(sched) && e.InFlight() == 0 {
			break
		}
	}
	tr.totals = totalsOf(e)
	return tr
}

// compareTraces fails the test where the trace of the run named what
// departs from the reference run's.
func compareTraces(t *testing.T, what string, ref, got trace) {
	t.Helper()
	if ref.stepErr != got.stepErr || ref.errCycle != got.errCycle {
		t.Fatalf("%s: step outcome diverges:\n  reference: cycle %d %q\n  %s: cycle %d %q",
			what, ref.errCycle, ref.stepErr, what, got.errCycle, got.stepErr)
	}
	if len(ref.deliveries) != len(got.deliveries) {
		t.Fatalf("%s: delivered %d packets, the reference %d",
			what, len(got.deliveries), len(ref.deliveries))
	}
	for i := range ref.deliveries {
		if ref.deliveries[i] != got.deliveries[i] {
			t.Fatalf("%s: delivery %d diverges:\n  reference: %+v\n  %s: %+v",
				what, i, ref.deliveries[i], what, got.deliveries[i])
		}
	}
	if ref.totals != got.totals {
		t.Errorf("%s: counter totals diverge:\n  reference: %+v\n  %s: %+v",
			what, ref.totals, what, got.totals)
	}
}

// skipCase extends a diffCase with an optional fault-masking policy, a
// random fault process and a leap-expectation flag. Cases with wantLeaps
// are sparse enough that a leap-free run means the event clock is broken
// (or disabled), so the harness fails rather than passing vacuously.
type skipCase struct {
	diffCase
	pol       fault.RoutingPolicy
	plan      fault.Plan
	wantLeaps bool
}

func skipCases() []skipCase {
	var out []skipCase
	// Every differential case (all registered algorithms, static faults,
	// recovery) rides along at its original rate: skipping must be a no-op
	// on busy workloads too.
	for _, c := range diffCases {
		out = append(out, skipCase{diffCase: c})
	}
	// Fault masking, with and without misrouting: masked-decision and
	// misroute-hop counters must also agree.
	out = append(out,
		skipCase{
			diffCase: diffCase{topo: "mesh", alg: "west-first", rate: 0.02, cycles: 4000, rec: true,
				faults: []topology.Channel{mustChan("mesh", 7, topology.East), mustChan("mesh", 14, topology.North)}},
			pol: fault.RoutingPolicy{Visibility: fault.VisibilityLocal},
		},
		skipCase{
			diffCase: diffCase{topo: "mesh", alg: "negative-first", rate: 0.02, cycles: 4000, rec: true,
				faults: []topology.Channel{mustChan("mesh", 7, topology.East), mustChan("mesh", 21, topology.South)}},
			pol: fault.RoutingPolicy{Visibility: fault.VisibilityKHop, MisrouteLimit: 4},
		},
	)
	// Sparse workloads where idle gaps dominate: leaps are guaranteed and
	// asserted. One plain, one with recovery (retry backoff timers bound
	// the leaps), one with a random fault process with repair (the fault
	// event heap bounds the leaps), one masked.
	sparse := func(alg string, topo string, rec bool, pol fault.RoutingPolicy, plan fault.Plan, faults ...topology.Channel) skipCase {
		return skipCase{
			diffCase:  diffCase{topo: topo, alg: alg, rate: 0.002, cycles: 6000, rec: rec, faults: faults},
			pol:       pol,
			plan:      plan,
			wantLeaps: true,
		}
	}
	out = append(out,
		sparse("west-first", "mesh", false, fault.RoutingPolicy{}, fault.Plan{}),
		sparse("negative-first+wrap", "torus", true, fault.RoutingPolicy{}, fault.Plan{}),
		sparse("p-cube-nonminimal", "cube", true, fault.RoutingPolicy{}, fault.Plan{},
			mustChan("cube", 3, topology.Dir(1, false))),
		sparse("west-first", "mesh", true, fault.RoutingPolicy{Visibility: fault.VisibilityLocal},
			fault.Plan{Rate: 2e-5, Repair: 400, Seed: 9}),
	)
	return out
}

func (c skipCase) skipName() string {
	n := c.name()
	if c.pol.Enabled() {
		n += "/masked"
	}
	if !c.plan.Empty() {
		n += "/faultplan"
	}
	if c.wantLeaps {
		n += "/sparse"
	}
	return n
}

// buildSkip constructs one engine for the case; stepped pins the clock
// mode.
func buildSkip(t *testing.T, c skipCase, useVC bool, stepped bool) simEngine {
	t.Helper()
	alg, err := routing.New(c.alg, c.topology(t))
	if err != nil {
		t.Fatal(err)
	}
	rec := fault.Recovery{}
	if c.rec {
		rec = fault.Recovery{Enabled: true, StallCycles: 200, MaxRetries: 4}
	}
	if useVC {
		return vcnet.New(vcnet.Config{
			Routing:          vc.Lift(alg),
			Faults:           c.faults,
			FaultPlan:        c.plan,
			Recovery:         rec,
			FaultRouting:     c.pol,
			DisableEventSkip: stepped,
		})
	}
	return network.New(network.Config{
		Routing:          alg,
		Faults:           c.faults,
		FaultPlan:        c.plan,
		Recovery:         rec,
		FaultRouting:     c.pol,
		DisableEventSkip: stepped,
	})
}

// runSkipTrace drives one engine event to event: each iteration enqueues
// everything due at the current cycle, promises the engine that no further
// injection arrives before the next scheduled one, and steps. A stepped
// engine ignores the promise and advances one cycle; an event-driven one
// may leap. The recorded trace has the same observables as runTrace's.
// Returns the trace and how many cycles the engine skipped.
func runSkipTrace(t *testing.T, c skipCase, e simEngine, sched []injection) (trace, int64) {
	t.Helper()
	var tr trace
	next := 0
	drain := c.cycles + 20000
	for e.Cycle() < drain {
		cycle := e.Cycle()
		for next < len(sched) && sched[next].cycle == cycle {
			in := sched[next]
			e.Enqueue(in.src, in.dst, in.length)
			next++
		}
		if next < len(sched) {
			e.SetInjectionHorizon(sched[next].cycle)
		} else {
			e.SetInjectionHorizon(drain)
		}
		if err := e.Step(); err != nil {
			tr.stepErr = err.Error()
			tr.errCycle = cycle
			break
		}
		for _, p := range e.TakeDelivered() {
			tr.deliveries = append(tr.deliveries, delivery{
				cycle: cycle, id: p.ID, injected: p.Injected, arrived: p.Arrived,
				hops: p.Hops, aborts: p.Aborts,
			})
		}
		if next == len(sched) && e.InFlight() == 0 {
			break
		}
	}
	tr.totals = totalsOf(e)
	return tr, e.CyclesSkipped()
}

// crossMode runs one case stepped and compares the event-driven run
// against it.
func crossMode(t *testing.T, c skipCase, useVC bool) {
	topo := c.topology(t)
	sched := schedule(c.diffCase, topo, 42)
	stepped, skipped := runSkipTrace(t, c, buildSkip(t, c, useVC, true), sched)
	if skipped != 0 {
		t.Fatalf("stepped engine skipped %d cycles; DisableEventSkip is broken", skipped)
	}
	if stepped.totals.Delivered == 0 {
		t.Fatalf("stepped run delivered no packets (workload too weak to mean anything)")
	}
	leaped, skipped := runSkipTrace(t, c, buildSkip(t, c, useVC, false), sched)
	compareTraces(t, "event-driven", stepped, leaped)
	if c.wantLeaps && skipped == 0 {
		t.Errorf("sparse workload skipped no cycles; the equivalence check is vacuous")
	}
}

// TestCrossModeNetwork checks that the physical-channel simulator produces
// bit-identical results with the clock stepped and leaping.
func TestCrossModeNetwork(t *testing.T) {
	for _, c := range skipCases() {
		c := c
		t.Run(c.skipName(), func(t *testing.T) {
			t.Parallel()
			crossMode(t, c, false)
		})
	}
}

// TestCrossModeVCNet checks the virtual-channel simulator the same way.
func TestCrossModeVCNet(t *testing.T) {
	for _, c := range skipCases() {
		c := c
		t.Run(c.skipName(), func(t *testing.T) {
			t.Parallel()
			crossMode(t, c, true)
		})
	}
}

// TestCrossModeToggleProperty is the property variant: the injection
// horizon is granted and withdrawn at random mid-run — stretches where the
// caller promises nothing (horizon 0) interleave with stretches where the
// engine may leap — and the trace must still match the fully stepped
// baseline exactly, on both simulators, across several toggle seeds. This
// pins that skipping composes with itself: every leap is individually
// sound no matter which earlier idle cycles were leaped or stepped.
func TestCrossModeToggleProperty(t *testing.T) {
	c := skipCase{
		diffCase: diffCase{topo: "mesh", alg: "west-first", rate: 0.004, cycles: 6000, rec: true,
			faults: []topology.Channel{mustChan("mesh", 7, topology.East)}},
	}
	topo := c.topology(t)
	sched := schedule(c.diffCase, topo, 42)
	for _, useVC := range []bool{false, true} {
		name := "network"
		if useVC {
			name = "vcnet"
		}
		t.Run(name, func(t *testing.T) {
			baseline, _ := runSkipTrace(t, c, buildSkip(t, c, useVC, true), sched)
			if baseline.totals.Delivered == 0 {
				t.Fatal("baseline delivered no packets")
			}
			for seed := int64(1); seed <= 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				e := buildSkip(t, c, useVC, false)
				var tr trace
				next := 0
				drain := c.cycles + 20000
				for e.Cycle() < drain {
					cycle := e.Cycle()
					for next < len(sched) && sched[next].cycle == cycle {
						in := sched[next]
						e.Enqueue(in.src, in.dst, in.length)
						next++
					}
					// Toggle: half the iterations withdraw the horizon
					// (horizon 0 never exceeds the current cycle, so the
					// engine steps plainly), half grant it.
					if rng.Intn(2) == 0 {
						e.SetInjectionHorizon(0)
					} else if next < len(sched) {
						e.SetInjectionHorizon(sched[next].cycle)
					} else {
						e.SetInjectionHorizon(drain)
					}
					if err := e.Step(); err != nil {
						tr.stepErr = err.Error()
						tr.errCycle = cycle
						break
					}
					for _, p := range e.TakeDelivered() {
						tr.deliveries = append(tr.deliveries, delivery{
							cycle: cycle, id: p.ID, injected: p.Injected, arrived: p.Arrived,
							hops: p.Hops, aborts: p.Aborts,
						})
					}
					if next == len(sched) && e.InFlight() == 0 {
						break
					}
				}
				tr.totals = totalsOf(e)
				compareTraces(t, fmt.Sprintf("toggle seed %d", seed), baseline, tr)
			}
		})
	}
}
