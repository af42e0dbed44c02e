package main

import (
	"math/rand"
	"time"

	"turnmodel/internal/fault"
	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
	"turnmodel/internal/topology"
	"turnmodel/internal/vc"
)

// candidateSamples is how many (node, destination, arrival) states each
// routing layer is timed over per workload algorithm.
const candidateSamples = 100_000

// routeState is one header position: where it is, where it is going and
// how it arrived.
type routeState struct {
	Cur, Dst topology.NodeID
	In       topology.Direction
	InWrap   bool
	InVC     int
}

// walkStates collects n header states by walking seeded source →
// destination routes under the algorithm's own candidates, so every state
// is one the simulator can actually present.
func walkStates(topo topology.Topology, n int, seed int64, candidates func(routeState) (dirs []topology.Direction, vcs []int)) []routeState {
	rng := rand.New(rand.NewSource(seed))
	states := make([]routeState, 0, n)
	for len(states) < n {
		s := routeState{
			Cur: topology.NodeID(rng.Intn(topo.Nodes())),
			Dst: topology.NodeID(rng.Intn(topo.Nodes())),
			In:  topology.Invalid,
		}
		// A nonminimal relation may wander; 4 diameters bounds the walk.
		for hop := 0; hop < 64 && s.Cur != s.Dst && len(states) < n; hop++ {
			states = append(states, s)
			dirs, vcs := candidates(s)
			if len(dirs) == 0 {
				break
			}
			pick := rng.Intn(len(dirs))
			next, ok := topo.Neighbor(s.Cur, dirs[pick])
			if !ok {
				break
			}
			s.InWrap = topo.Wraparound(s.Cur, dirs[pick])
			s.Cur, s.In = next, dirs[pick]
			if vcs != nil {
				s.InVC = vcs[pick]
			}
		}
	}
	return states
}

// routingCandidatesNs times routing candidate generation the way
// internal/network calls it (the allocation-free appender when the
// algorithm has one), in ns per call averaged over the algorithms.
func routingCandidatesNs(newTopo func() topology.Topology, algorithms []string, seed int64) (float64, error) {
	total, calls := time.Duration(0), 0
	for _, name := range algorithms {
		topo := newTopo()
		alg, err := routing.New(name, topo)
		if err != nil {
			return 0, err
		}
		states := walkStates(topo, candidateSamples, seed, func(s routeState) ([]topology.Direction, []int) {
			return alg.Candidates(s.Cur, s.Dst, s.In, s.InWrap), nil
		})
		var buf [8]topology.Direction
		appender, _ := alg.(routing.CandidateAppender)
		start := time.Now()
		for _, s := range states {
			if appender != nil {
				sinkDirs = appender.AppendCandidates(buf[:0], s.Cur, s.Dst, s.In, s.InWrap)
			} else {
				sinkDirs = alg.Candidates(s.Cur, s.Dst, s.In, s.InWrap)
			}
		}
		total += time.Since(start)
		calls += len(states)
	}
	return float64(total) / float64(calls), nil
}

// faultAwareCandidatesNs times routing.FaultAware.FaultCandidates with a
// seeded set of broken channels known under the resilience comparison's
// masking policy.
func faultAwareCandidatesNs(newTopo func() topology.Topology, algorithms []string, seed int64) (float64, error) {
	total, calls := time.Duration(0), 0
	for _, name := range algorithms {
		topo := newTopo()
		alg, err := routing.New(name, topo)
		if err != nil {
			return 0, err
		}
		// 17 broken channels: what the highest fault rate of the
		// faulted-compare workload expects by the end of a bench run.
		rng := rand.New(rand.NewSource(seed))
		chans := topo.Channels()
		var plan fault.Plan
		for _, i := range rng.Perm(len(chans))[:17] {
			plan.Static = append(plan.Static, chans[i])
		}
		state, err := fault.NewState(plan, topo)
		if err != nil {
			return 0, err
		}
		health := fault.NewHealth(topo, state, maskingPolicy)
		masked := routing.NewFaultAware(alg, health, maskingPolicy)
		states := walkStates(topo, candidateSamples, seed, func(s routeState) ([]topology.Direction, []int) {
			dirs, _ := masked.FaultCandidates(s.Cur, s.Dst, s.In, s.InWrap, 0)
			return dirs, nil
		})
		start := time.Now()
		for _, s := range states {
			sinkDirs, _ = masked.FaultCandidates(s.Cur, s.Dst, s.In, s.InWrap, 0)
		}
		total += time.Since(start)
		calls += len(states)
	}
	return float64(total) / float64(calls), nil
}

// vcCandidatesNs is routingCandidatesNs for the virtual-channel relation.
func vcCandidatesNs(newTopo func() topology.Topology, algorithms []string, seed int64) (float64, error) {
	total, calls := time.Duration(0), 0
	for _, name := range algorithms {
		topo := newTopo()
		alg, err := vc.New(name, topo)
		if err != nil {
			return 0, err
		}
		states := walkStates(topo, candidateSamples, seed, func(s routeState) ([]topology.Direction, []int) {
			outs := alg.Candidates(s.Cur, s.Dst, s.In, s.InVC)
			dirs, vcs := make([]topology.Direction, len(outs)), make([]int, len(outs))
			for i, o := range outs {
				dirs[i], vcs[i] = o.Dir, o.VC
			}
			return dirs, vcs
		})
		var (
			buf     [8]vc.Out
			scratch []topology.Direction
		)
		appender, _ := alg.(vc.CandidateAppender)
		start := time.Now()
		for _, s := range states {
			if appender != nil {
				sinkOuts, scratch = appender.AppendCandidates(buf[:0], scratch, s.Cur, s.Dst, s.In, s.InVC)
			} else {
				sinkOuts = alg.Candidates(s.Cur, s.Dst, s.In, s.InVC)
			}
		}
		total += time.Since(start)
		calls += len(states)
	}
	return float64(total) / float64(calls), nil
}

// Results of timed calls land here so the compiler cannot drop the calls.
var (
	sinkDirs []topology.Direction
	sinkOuts []vc.Out
)

// collectorOverheadFrac runs one mid-load mesh-transpose point with and
// without the metrics collector, three times each, and reports how much
// longer the collecting run took. The collector is off in every workload;
// the row is for users of -metrics.
func collectorOverheadFrac(seed int64) (float64, error) {
	spec, _ := sim.FigureByID("figure14")
	topo := spec.NewTopology()
	alg, err := routing.New("west-first", topo)
	if err != nil {
		return 0, err
	}
	run := func(collect bool) float64 {
		start := time.Now()
		sim.Run(sim.Config{Routing: alg, RunParams: sim.RunParams{
			Pattern:       spec.NewPattern(topo),
			InjectionRate: 0.06,
			WarmupCycles:  2000,
			MeasureCycles: 6000,
			Seed:          seed,
			Metrics:       collect,
		}})
		return time.Since(start).Seconds()
	}
	var plain, collecting []float64
	for i := 0; i < 3; i++ {
		plain = append(plain, run(false))
		collecting = append(collecting, run(true))
	}
	return median(collecting)/median(plain) - 1, nil
}
