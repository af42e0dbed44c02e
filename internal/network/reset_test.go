package network

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// streamProbe hashes the probe's event stream in the order it arrives.
type streamProbe struct {
	h      hash.Hash
	events int64
}

func (p *streamProbe) put(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		p.h.Write(b[:])
	}
	p.events++
}

func (p *streamProbe) Inject(cycle int64, src, dst topology.NodeID, length int) {
	p.put(1, cycle, int64(src), int64(dst), int64(length))
}
func (p *streamProbe) Blocked(node topology.NodeID, from, to int64) { p.put(2, int64(node), from, to) }
func (p *streamProbe) FlitMove(cycle int64, from topology.NodeID, d topology.Direction, flits int) {
	p.put(3, cycle, int64(from), int64(d), int64(flits))
}
func (p *streamProbe) Deliver(cycle int64, src, dst topology.NodeID, length, hops int, queueDelay, netDelay int64) {
	p.put(4, cycle, int64(src), int64(dst), int64(length), int64(hops), queueDelay, netDelay)
}
func (p *streamProbe) Fault(cycle int64, from topology.NodeID, d topology.Direction, failed bool) {
	f := int64(0)
	if failed {
		f = 1
	}
	p.put(5, cycle, int64(from), int64(d), f)
}
func (p *streamProbe) Abort(cycle int64, src, dst topology.NodeID, length, attempt int) {
	p.put(6, cycle, int64(src), int64(dst), int64(length), int64(attempt))
}
func (p *streamProbe) Retry(cycle int64, src, dst topology.NodeID, attempt int, delay int64) {
	p.put(7, cycle, int64(src), int64(dst), int64(attempt), delay)
}
func (p *streamProbe) Drop(cycle int64, src, dst topology.NodeID, length int, reason metrics.DropReason) {
	p.put(8, cycle, int64(src), int64(dst), int64(length), int64(reason))
}
func (p *streamProbe) Tick(cycle int64) { p.put(9, cycle) }

// resetCase is one configuration of the Reset matrix and the traffic it
// runs: Bernoulli generation at rate per node and cycle, packets of 1 to
// maxLen flits, for the given cycles or until Step fails.
type resetCase struct {
	name   string
	cfg    Config
	probe  bool
	rate   float64
	maxLen int
	cycles int64
	// expect names what the run must show for the comparison to mean
	// anything: "faults", "aborts", "masked" or "deadlock".
	expect []string
}

// resetCases is the matrix TestResetMatchesNew walks with one network, in
// order: topology switches mesh -> cube -> mesh, faults with recovery,
// masking and both, a routing delay, a probe, a randomized output policy,
// and a fully adaptive run that trips the watchdog, after which the
// network is reset and reused again.
func resetCases(t *testing.T) []resetCase {
	mesh := topology.NewMesh2D(8, 8)
	cube := topology.NewHypercube(5)
	small := topology.NewMesh2D(4, 4)
	alg := func(name string, topo topology.Topology) routing.Algorithm {
		t.Helper()
		a, err := routing.New(name, topo)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	faults := fault.Plan{Rate: 3e-4, Repair: 120, Seed: 5}
	recovery := fault.Recovery{Enabled: true, StallCycles: 80}
	masking := fault.RoutingPolicy{Visibility: fault.VisibilityKHop, MisrouteLimit: 2}
	static := []topology.Channel{{From: mesh.ID(topology.Coord{3, 3}), Dir: topology.East}}
	return []resetCase{
		{name: "mesh", cfg: Config{Routing: alg("west-first", mesh)}, rate: 0.02, maxLen: 24, cycles: 600},
		{name: "cube", cfg: Config{Routing: alg("p-cube", cube)}, rate: 0.03, maxLen: 24, cycles: 500},
		{name: "mesh-recovery", cfg: Config{
			Routing: alg("west-first", mesh), Faults: static, FaultPlan: faults, Recovery: recovery,
		}, rate: 0.03, maxLen: 24, cycles: 1200, expect: []string{"faults", "aborts"}},
		{name: "mesh-masking", cfg: Config{
			Routing: alg("negative-first", mesh), FaultPlan: faults, FaultRouting: masking, WatchdogCycles: -1,
		}, rate: 0.02, maxLen: 24, cycles: 1200, expect: []string{"faults", "masked"}},
		{name: "mesh-recovery-masking", cfg: Config{
			Routing: alg("west-first", mesh), FaultPlan: fault.Plan{Rate: 3e-4, Repair: 120, Seed: 8},
			Recovery: recovery, FaultRouting: masking,
		}, rate: 0.03, maxLen: 24, cycles: 1200, expect: []string{"faults", "aborts", "masked"}},
		{name: "mesh-delay", cfg: Config{Routing: alg("north-last", mesh), RoutingDelay: 3}, rate: 0.02, maxLen: 24, cycles: 600},
		{name: "mesh-probe", cfg: Config{
			Routing: alg("west-first", mesh), FaultPlan: faults, Recovery: recovery,
		}, probe: true, rate: 0.03, maxLen: 24, cycles: 800, expect: []string{"faults"}},
		{name: "mesh-random-output", cfg: Config{
			Routing: alg("negative-first", mesh), Output: RandomOutput{}, Input: OldestFirst{}, Seed: 9,
		}, rate: 0.03, maxLen: 24, cycles: 600},
		{name: "small-deadlock", cfg: Config{
			Routing: alg("fully-adaptive", small), WatchdogCycles: 300,
		}, rate: 0.1, maxLen: 60, cycles: 20000, expect: []string{"deadlock"}},
		{name: "mesh-after-deadlock", cfg: Config{Routing: alg("west-first", mesh)}, probe: true, rate: 0.02, maxLen: 24, cycles: 600},
		{name: "cube-recovery-masking", cfg: Config{
			Routing: alg("p-cube", cube), FaultPlan: faults, Recovery: recovery, FaultRouting: masking,
		}, rate: 0.04, maxLen: 24, cycles: 800, expect: []string{"faults"}},
	}
}

// driveCase runs the case's traffic on the network and renders everything
// observable about the run: every packet's injection and delivery cycles,
// hops and aborts, the counters, the Step error, and the probe's stream.
func driveCase(t *testing.T, n *Network, c resetCase, probe *streamProbe) string {
	t.Helper()
	nodes := c.cfg.Routing.Topology().Nodes()
	rng := rand.New(rand.NewSource(int64(len(c.name))*7919 + 1))
	var pkts []*Packet
	var stepErr error
	for n.Cycle() < c.cycles && stepErr == nil {
		for node := 0; node < nodes; node++ {
			if rng.Float64() >= c.rate {
				continue
			}
			if dst := topology.NodeID(rng.Intn(nodes)); dst != topology.NodeID(node) {
				pkts = append(pkts, n.Enqueue(topology.NodeID(node), dst, 1+rng.Intn(c.maxLen)))
			}
		}
		stepErr = n.Step()
	}
	h := sha256.New()
	for _, p := range pkts {
		fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d\n", p.ID, p.Src, p.Dst, p.Length, p.Created, p.Injected, p.Arrived, p.Hops, p.Aborts)
	}
	var dl *DeadlockError
	for _, want := range c.expect {
		ok := true
		switch want {
		case "faults":
			ok = n.FaultEvents() > 0
		case "aborts":
			ok = n.PacketsAborted() > 0
		case "masked":
			ok = n.MaskedFaults() > 0
		case "deadlock":
			ok = errors.As(stepErr, &dl)
		}
		if !ok {
			t.Fatalf("%s: the run shows no %s; the comparison would be vacuous", c.name, want)
		}
	}
	if stepErr != nil && dl == nil {
		t.Fatalf("%s: %v", c.name, stepErr)
	}
	if n.PacketsDelivered() == 0 {
		t.Fatalf("%s: nothing delivered; the comparison would be vacuous", c.name)
	}
	out := fmt.Sprintf("packets=%d digest=%x cycle=%d flits=%d delivered=%d dropped=%d aborted=%d retried=%d faults=%d active=%d masked=%d misroutes=%d inflight=%d maxq=%d err=%v",
		len(pkts), h.Sum(nil)[:12], n.Cycle(), n.FlitsConsumed(), n.PacketsDelivered(), n.PacketsDropped(),
		n.PacketsAborted(), n.PacketsRetried(), n.FaultEvents(), n.ActiveFaults(), n.MaskedFaults(),
		n.MisrouteHops(), n.InFlight(), n.MaxQueueLen(), stepErr)
	if probe != nil {
		out += fmt.Sprintf(" probe=%d:%s", probe.events, hex.EncodeToString(probe.h.Sum(nil)[:12]))
	}
	return out
}

// withProbe returns the case's configuration with a fresh stream probe
// attached if the case asks for one.
func (c resetCase) withProbe() (Config, *streamProbe) {
	cfg := c.cfg
	if !c.probe {
		return cfg, nil
	}
	p := &streamProbe{h: sha256.New()}
	cfg.Probe = p
	return cfg, p
}

// TestResetMatchesNew: one network walked through the whole matrix, reset
// from each run into the next, must run every configuration exactly as a
// network New builds for it — the same packet histories, counters, Step
// error and probe stream — whatever the run before it left behind.
func TestResetMatchesNew(t *testing.T) {
	var reused *Network
	for _, c := range resetCases(t) {
		cfg, probe := c.withProbe()
		if reused == nil {
			reused = New(cfg)
		} else {
			reused.Reset(cfg)
		}
		got := driveCase(t, reused, c, probe)
		cfg, probe = c.withProbe()
		want := driveCase(t, New(cfg), c, probe)
		if got != want {
			t.Errorf("%s: after Reset\n  %s\nNew\n  %s", c.name, got, want)
		}
	}
}

// resetIgnored names the fields a reset network may hold and a new one
// not, none of which is state: the worm free list, the spare RNG, fault
// state, health view and masking wrapper kept for reuse (each is compared
// where it is in use), and the rest of the last packet chunk, fresh
// packets nobody was handed.
var resetIgnored = map[string]bool{"free": true, "spare": true, "slab": true}

// sameState compares two values field by field, unexported fields too,
// following pointers: slices by length and elements (so capacities, and
// nil against empty, do not count), func values not at all, and the
// fields resetIgnored names skipped. It returns the path of the first
// difference, or "".
func sameState(a, b reflect.Value, path string, seen map[[2]unsafe.Pointer]bool) string {
	if a.Type() != b.Type() {
		return path + ": types differ"
	}
	switch a.Kind() {
	case reflect.Func:
		return ""
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil against non-nil"
			}
			return ""
		}
		key := [2]unsafe.Pointer{a.UnsafePointer(), b.UnsafePointer()}
		if key[0] == key[1] || seen[key] {
			return ""
		}
		seen[key] = true
		return sameState(a.Elem(), b.Elem(), path, seen)
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil against non-nil"
			}
			return ""
		}
		return sameState(a.Elem(), b.Elem(), path, seen)
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d against %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := sameState(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); d != "" {
				return d
			}
		}
		return ""
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Field(i).Name
			if resetIgnored[name] {
				continue
			}
			if d := sameState(a.Field(i), b.Field(i), path+"."+name, seen); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if a.Len() != b.Len() {
			return path + ": map sizes differ"
		}
		return ""
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v against %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d against %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d against %d", path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			return fmt.Sprintf("%s: %v against %v", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q against %q", path, a.String(), b.String())
		}
	default:
		return path + ": cannot compare kind " + a.Kind().String()
	}
	return ""
}

// TestResetLeavesNewState: after each run of the matrix, Reset(cfg) must
// leave every field of the Network, its engine.Core and all they point to
// equal to what New(cfg) builds — capacities, func hooks and the storage
// resetIgnored names aside. A field Reset forgot would carry the previous
// run into the next even where TestResetMatchesNew's traffic does not look.
func TestResetLeavesNewState(t *testing.T) {
	var reused *Network
	for _, c := range resetCases(t) {
		cfg, _ := c.withProbe()
		if reused == nil {
			reused = New(cfg)
		}
		reused.Reset(cfg)
		fresh := New(cfg)
		seen := map[[2]unsafe.Pointer]bool{}
		if d := sameState(reflect.ValueOf(reused).Elem(), reflect.ValueOf(fresh).Elem(), "Network", seen); d != "" {
			t.Errorf("%s: Reset differs from New at %s", c.name, d)
		}
		driveCase(t, reused, c, nil)
	}
}

// TestSameStateSeesDifferences keeps TestResetLeavesNewState honest: the
// comparison must notice a scribbled counter, table entry, fault bit or
// timer deep inside a reset network.
func TestSameStateSeesDifferences(t *testing.T) {
	c := resetCases(t)[2]
	for _, scribble := range []func(n *Network){
		func(n *Network) { n.core.PacketsDone = 1 },
		func(n *Network) { n.occupied[3] = true },
		func(n *Network) { n.core.Faults.Faulted[5] = !n.core.Faults.Faulted[5] },
		func(n *Network) { n.stalls.Push(7, stall{}) },
		func(n *Network) { n.core.Em.Reset(&streamProbe{}) },
	} {
		a, b := New(c.cfg), New(c.cfg)
		scribble(a)
		if d := sameState(reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem(), "Network", map[[2]unsafe.Pointer]bool{}); d == "" {
			t.Error("a scribbled network compared equal to a new one")
		}
	}
}

// TestResetZeroAllocs: Reset on the topology the network already has
// allocates nothing, for a plain configuration and for faults with
// masking and recovery. Each round runs the case's traffic first, so
// there are worms, timers, queues and fault events to clear; the first
// round sizes the storage the others reuse.
func TestResetZeroAllocs(t *testing.T) {
	cases := resetCases(t)
	for _, c := range []resetCase{cases[0], cases[4]} {
		n := New(c.cfg)
		var before, after runtime.MemStats
		for round := 0; round < 4; round++ {
			driveCase(t, n, c, nil)
			runtime.ReadMemStats(&before)
			n.Reset(c.cfg)
			runtime.ReadMemStats(&after)
			if allocs := after.Mallocs - before.Mallocs; round > 0 && allocs != 0 {
				t.Errorf("%s: round %d: Reset allocated %d times", c.name, round, allocs)
			}
		}
	}
}
