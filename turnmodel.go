package turnmodel

import (
	"context"

	"turnmodel/internal/adaptiveness"
	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/network"
	"turnmodel/internal/routing"
	"turnmodel/internal/sim"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
	"turnmodel/internal/turnmodel"
	"turnmodel/internal/vc"
	"turnmodel/internal/vcnet"
)

// Topology types. NodeID indexes nodes densely; Coord is the coordinate
// vector (x_0, ..., x_{n-1}); Direction is one of the 2n travel directions
// with West/East/South/North naming the 2D ones.
type (
	Topology  = topology.Topology
	Mesh      = topology.Mesh
	Torus     = topology.Torus
	Hypercube = topology.Hypercube
	Hex       = topology.Hex
	Octagonal = topology.Octagonal
	CCC       = topology.CCC
	NodeID    = topology.NodeID
	Coord     = topology.Coord
	Direction = topology.Direction
	Channel   = topology.Channel
)

// The four compass directions of a 2D mesh (dimension 0 is x, 1 is y).
const (
	West  = topology.West
	East  = topology.East
	South = topology.South
	North = topology.North
)

// NewMesh builds an n-dimensional mesh with the given per-dimension sizes.
func NewMesh(sizes ...int) *Mesh { return topology.NewMesh(sizes...) }

// NewMesh2D builds an m x n two-dimensional mesh.
func NewMesh2D(m, n int) *Mesh { return topology.NewMesh2D(m, n) }

// NewTorus builds a torus (k-ary n-cube when all sizes agree).
func NewTorus(sizes ...int) *Torus { return topology.NewTorus(sizes...) }

// NewKaryNCube builds the uniform k-ary n-cube of Section 4.2.
func NewKaryNCube(k, n int) *Torus { return topology.NewKaryNCube(k, n) }

// NewHypercube builds a binary n-cube.
func NewHypercube(n int) *Hypercube { return topology.NewHypercube(n) }

// NewHex builds an A x B hexagonal mesh (Section 7 future work).
func NewHex(a, b int) *Hex { return topology.NewHex(a, b) }

// NewOctagonal builds a W x H octagonal mesh — a 2D mesh with diagonal
// channels (Section 7 future work).
func NewOctagonal(w, h int) *Octagonal { return topology.NewOctagonal(w, h) }

// NewCCC builds a cube-connected cycles network of order n (Section 7
// future work). Route it with the virtual-channel algorithm
// "ccc-ascending" via NewVCRouting.
func NewCCC(n int) *CCC { return topology.NewCCC(n) }

// Routing is a routing algorithm bound to a topology.
type Routing = routing.Algorithm

// NewRouting constructs the named routing algorithm on the topology; see
// RoutingNames for the registry.
func NewRouting(name string, topo Topology) (Routing, error) { return routing.New(name, topo) }

// RoutingNames lists the algorithms NewRouting accepts, including the
// paper's xy, e-cube, west-first, north-last, negative-first, abonf,
// abopl, p-cube and the torus extensions.
func RoutingNames() []string { return routing.Names() }

// NewPhasedRouting builds a custom turn-model discipline: directions
// grouped into ordered phases, turns from later phases back to earlier
// ones prohibited. All of the paper's algorithms are instances; see
// routing.Phased for the design-space guarantees.
func NewPhasedRouting(topo Topology, name string, phases ...[]Direction) Routing {
	return routing.Phased(topo, name, phases...)
}

// Turn-model analysis types (the paper's Section 2 machinery).
type (
	Turn          = turnmodel.Turn
	TurnSet       = turnmodel.Set
	AbstractCycle = turnmodel.AbstractCycle
	CDG           = turnmodel.CDG
	Numbering     = turnmodel.Numbering
	Combination   = turnmodel.Combination
)

// AbstractCycles enumerates the n(n-1) abstract turn cycles of an
// n-dimensional mesh (Figure 2 generalized).
func AbstractCycles(n int) []AbstractCycle { return turnmodel.AbstractCycles(n) }

// AllTurns90 enumerates the 4n(n-1) ninety-degree turns of an
// n-dimensional network.
func AllTurns90(n int) []Turn { return turnmodel.AllTurns90(n) }

// MinimumProhibitedTurns is Theorem 1's n(n-1) lower bound.
func MinimumProhibitedTurns(n int) int { return turnmodel.MinimumProhibited(n) }

// Census2D evaluates all 16 two-turn prohibitions of a 2D mesh; 12 are
// deadlock free (Section 3).
func Census2D(m, n int) []Combination { return turnmodel.Census2D(m, n) }

// SymmetryClasses groups deadlock-free combinations under the square's
// symmetries; the paper's three classes are west-first, north-last and
// negative-first.
func SymmetryClasses(combos []Combination) [][]Combination {
	return turnmodel.SymmetryClasses(combos)
}

// DependencyGraph builds the exact channel dependency graph of a routing
// algorithm; its acyclicity is the Dally-Seitz deadlock-freedom criterion.
func DependencyGraph(alg Routing) *CDG {
	return turnmodel.FromRouting(alg.Topology(), routing.Relation(alg))
}

// VerifyDeadlockFree checks the algorithm's channel dependency graph and
// returns one offending cycle, or nil when the algorithm is deadlock free.
func VerifyDeadlockFree(alg Routing) []Channel {
	return DependencyGraph(alg).FindCycle()
}

// WestFirstNumbering, NorthLastNumbering and NegativeFirstNumbering are
// the channel numbering schemes of Theorems 2, 3 and 5.
func WestFirstNumbering(m *Mesh) Numbering     { return turnmodel.WestFirstNumbering(m) }
func NorthLastNumbering(m *Mesh) Numbering     { return turnmodel.NorthLastNumbering(m) }
func NegativeFirstNumbering(m *Mesh) Numbering { return turnmodel.NegativeFirstNumbering(m) }

// ValidateNumbering checks the Dally-Seitz proof obligation: every channel
// dependency the algorithm can create follows the numbering's monotone
// order.
func ValidateNumbering(nb Numbering, alg Routing) error {
	return nb.Validate(alg.Topology(), routing.Relation(alg))
}

// Traffic patterns.
type TrafficPattern = traffic.Pattern

// UniformTraffic sends each message to any other node with equal
// probability.
func UniformTraffic(topo Topology) TrafficPattern { return traffic.Uniform{Topo: topo} }

// TransposeTraffic is the paper's matrix-transpose workload on a square 2D
// mesh.
func TransposeTraffic(m *Mesh) TrafficPattern { return traffic.NewMeshTranspose(m) }

// HypercubeTransposeTraffic is the mesh transpose embedded in a hypercube
// (Section 6).
func HypercubeTransposeTraffic(h *Hypercube) TrafficPattern {
	return traffic.NewHypercubeTranspose(h)
}

// ReverseFlipTraffic sends (x0,...,x_{n-1}) to (^x_{n-1},...,^x0).
func ReverseFlipTraffic(h *Hypercube) TrafficPattern { return traffic.ReverseFlip{Cube: h} }

// BitComplementTraffic mirrors every coordinate.
func BitComplementTraffic(topo Topology) TrafficPattern { return traffic.BitComplement{Topo: topo} }

// HotspotTraffic sends the given fraction of messages to one hot node.
func HotspotTraffic(topo Topology, hot NodeID, fraction float64) TrafficPattern {
	return traffic.Hotspot{Topo: topo, Hot: hot, Fraction: fraction}
}

// AveragePathLength is the exact mean shortest-path length of a pattern,
// excluding fixed points.
func AveragePathLength(p TrafficPattern, topo Topology) float64 {
	return traffic.AveragePathLength(p, topo)
}

// Simulation. SimConfig/SimResult describe one run of the Section 6
// simulator; Network exposes the underlying cycle-level machine for
// callers that want to drive it manually.
type (
	SimConfig     = sim.Config
	SimRunParams  = sim.RunParams
	SimResult     = sim.Result
	FigureSpec    = sim.FigureSpec
	FigureResult  = sim.FigureResult
	Network       = network.Network
	NetworkConfig = network.Config
	Packet        = network.Packet
	OutputPolicy  = network.OutputPolicy
	InputPolicy   = network.InputPolicy
)

// Observability. A Probe receives inject/blocked/flit-move/deliver/tick
// events from either simulator (attach one via NetworkConfig.Probe,
// VCNetworkConfig.Probe or SimRunParams.Probe); MetricsCollector is the
// standard implementation whose MetricsSnapshot — latency percentiles from
// a log-bucketed histogram, queueing/in-network delay split, per-channel
// utilization, blocked cycles and an occupancy trace — lands in
// SimResult.Metrics when SimRunParams.Metrics is set. With no probe
// attached the simulators' hot loops pay nothing (zero allocations,
// enforced by a benchmark gate in CI). See docs/metrics.md.
type (
	Probe            = metrics.Probe
	MetricsCollector = metrics.Collector
	MetricsOptions   = metrics.Options
	MetricsSnapshot  = metrics.Snapshot
	MetricsHistogram = metrics.Histogram
)

// NewMetricsCollector builds a collector for the given topology; drive a
// simulator with it attached as the probe, then call the simulator's
// FlushBlocked, which reports the waits still under way, and Snapshot.
func NewMetricsCollector(topo Topology, opts MetricsOptions) *MetricsCollector {
	return metrics.NewCollector(topo, opts)
}

// TeeProbes fans simulation events out to both probes (either may be nil).
func TeeProbes(a, b Probe) Probe { return metrics.Tee(a, b) }

// FlitsPerMicrosecond is the paper's channel bandwidth (20 flits/us).
const FlitsPerMicrosecond = network.FlitsPerMicrosecond

// NewNetwork builds the cycle-level wormhole simulator directly.
func NewNetwork(cfg NetworkConfig) *Network { return network.New(cfg) }

// Simulate executes one simulation run.
func Simulate(cfg SimConfig) SimResult { return sim.Run(cfg) }

// SweepRates runs the configuration at each injection rate.
func SweepRates(cfg SimConfig, rates []float64) []SimResult { return sim.Sweep(cfg, rates) }

// Figures returns the paper's evaluation figures as runnable specs.
func Figures() []FigureSpec { return sim.Figures() }

// FigureByID looks up one figure spec ("figure13" ... "figure16",
// "uniform-cube").
func FigureByID(id string) (FigureSpec, bool) { return sim.FigureByID(id) }

// Sweep execution. SweepOptions batches figure and resilience specs;
// RunSweep flattens them into independent (figure, algorithm, rate) points,
// runs them on a bounded worker pool under a context.Context, streams each
// point through SweepOptions.OnPoint as it completes, and reassembles
// ordered results plus a JSON-ready SweepReport with per-point timings.
// Results are bit-identical for any worker count, and a SimCache
// (simcache.NewStore, or any conforming store) makes repeated points free.
type (
	SweepOptions       = sim.Options
	SweepOutcome       = sim.Outcome
	SweepReport        = sim.Report
	SweepSeedFunc      = sim.SeedFunc
	SweepProgressEvent = sim.ProgressEvent
	SweepPointEvent    = sim.PointEvent
	SweepRunner        = sim.Runner
	SimCache           = sim.Cache
)

// NewSweepRunner validates the options and plans a run without starting
// it; Runner.Run executes under a context.
func NewSweepRunner(opts SweepOptions) (*SweepRunner, error) { return sim.NewRunner(opts) }

// RunSweep executes the options' full point set; see sim.RunSweep.
func RunSweep(ctx context.Context, opts SweepOptions) (*SweepOutcome, error) {
	return sim.RunSweep(ctx, opts)
}

// PairedSweepSeed is the default per-job seed derivation: shared across
// algorithms at each rate index (common random numbers; reproduces the
// archived tables). HashSweepSeed derives independent streams per job.
func PairedSweepSeed(base int64, figureID, algorithm string, rateIdx int) int64 {
	return sim.PairedSeed(base, figureID, algorithm, rateIdx)
}
func HashSweepSeed(base int64, figureID, algorithm string, rateIdx int) int64 {
	return sim.HashSeed(base, figureID, algorithm, rateIdx)
}

// Output and input selection policies (Section 6 and the [19] ablation).
// The named registry (NewOutputPolicy/NewInputPolicy) mirrors NewRouting;
// the per-policy constructors remain as conveniences.
func LowestDimensionOutput() OutputPolicy { return network.LowestDimension{} }
func RandomOutput() OutputPolicy          { return network.RandomOutput{} }
func StraightFirstOutput() OutputPolicy   { return network.StraightFirst{} }
func LocalFCFSInput() InputPolicy         { return network.LocalFCFS{} }
func OldestFirstInput() InputPolicy       { return network.OldestFirst{} }

// NewOutputPolicy resolves an output selection policy by name; see
// OutputPolicyNames for the registry.
func NewOutputPolicy(name string) (OutputPolicy, error) { return network.NewOutputPolicy(name) }

// NewInputPolicy resolves an input selection policy by name; see
// InputPolicyNames for the registry.
func NewInputPolicy(name string) (InputPolicy, error) { return network.NewInputPolicy(name) }

// OutputPolicyNames and InputPolicyNames list the canonical policy names.
func OutputPolicyNames() []string { return network.OutputPolicyNames() }
func InputPolicyNames() []string  { return network.InputPolicyNames() }

// Virtual channels (Section 4.2 / reference [18]). VCRouting algorithms
// route over (direction, virtual channel) pairs; the VCNetwork simulator
// shares each physical channel's bandwidth among its virtual channels flit
// by flit.
type (
	VCRouting       = vc.Algorithm
	VCOut           = vc.Out
	VCChannel       = vc.Channel
	VCNetwork       = vcnet.Network
	VCNetworkConfig = vcnet.Config
	VCSimConfig     = sim.VCConfig
)

// NewVCRouting constructs a named virtual-channel algorithm: "double-y"
// (minimal fully adaptive 2D mesh, two VCs on the y links), "dateline-dor"
// (minimal deadlock-free torus DOR, two VCs), "naive-torus-dor" (the
// deadlock-prone negative control), or any physical algorithm name, which
// is lifted onto a single virtual channel.
func NewVCRouting(name string, topo Topology) (VCRouting, error) { return vc.New(name, topo) }

// VerifyVCDeadlockFree checks the virtual-channel dependency graph and
// returns one offending cycle, or nil when the algorithm is deadlock free.
func VerifyVCDeadlockFree(alg VCRouting) []VCChannel {
	return vc.FromRouting(alg).FindVCCycle()
}

// NewVCNetwork builds the flit-level virtual-channel simulator.
func NewVCNetwork(cfg VCNetworkConfig) *VCNetwork { return vcnet.New(cfg) }

// SimulateVC executes one virtual-channel simulation run.
func SimulateVC(cfg VCSimConfig) SimResult { return sim.RunVC(cfg) }

// VCComparisonResult is the structured outcome of the Section 7 / [18]
// extension experiment; render it with its Table method.
type VCComparisonResult = sim.VCComparisonResult

// VCComparison runs the Section 7 / [18] extension experiment comparing
// double-y against the no-extra-channel algorithms and renders the
// archived table. CompareVC returns the structured results instead.
func VCComparison(warmup, measure, seed int64) string {
	return sim.VCComparison(warmup, measure, seed).Table()
}

// CompareVC runs the same experiment and returns the structured per-rate
// results (VCComparison renders exactly CompareVC(...).Table()).
func CompareVC(warmup, measure, seed int64) VCComparisonResult {
	return sim.VCComparison(warmup, measure, seed)
}

// Fault injection and deadlock recovery. A FaultPlan describes the fault
// workload of a run — static broken channels, failed nodes, and a
// deterministic seed-driven random link-failure process with optional
// repair; FaultRecovery replaces the fail-stop watchdog with per-worm
// abort, source retry under capped exponential backoff, and unreachable-
// destination drops. Set them on SimRunParams (or NetworkConfig /
// VCNetworkConfig / SweepOptions); the delivery accounting lands in
// SimResult.Delivered/Dropped/Aborted/Retried/DeliveredFraction. See
// docs/faults.md.
type (
	FaultPlan     = fault.Plan
	FaultRecovery = fault.Recovery
	DropReason    = metrics.DropReason
)

// The reasons a packet can be dropped under recovery.
const (
	DropUnreachable      = metrics.DropUnreachable
	DropRetriesExhausted = metrics.DropRetriesExhausted
)

// ValidateFaultPlan checks a fault plan against a topology without
// building a simulator: every static channel and failed node must exist,
// the failure rate must lie in [0, 1) and the repair delay must be
// nonnegative.
func ValidateFaultPlan(topo Topology, p FaultPlan) error { return fault.Validate(topo, p) }

// Fault-aware routing (in-network fault masking). A FaultRoutingPolicy on
// SimRunParams / NetworkConfig / VCNetworkConfig / SweepOptions makes routers
// filter candidates on channels they know to be broken and optionally take
// bounded nonminimal detours along turns the algorithm already permits, so
// surviving adaptivity masks faults before recovery has to abort anything.
// The zero value leaves routing fault-oblivious. See docs/fault-routing.md.
type (
	FaultRoutingPolicy = fault.RoutingPolicy
	FaultVisibility    = fault.Visibility
)

// The health models of fault-aware routing: off, each router's own
// incident channels only, or dissemination to every router within
// FaultRoutingPolicy.Radius hops.
const (
	FaultVisibilityOff   = fault.VisibilityOff
	FaultVisibilityLocal = fault.VisibilityLocal
	FaultVisibilityKHop  = fault.VisibilityKHop
)

// DefaultFaultRadius is the k-hop dissemination horizon used when a
// policy enables FaultVisibilityKHop without choosing one.
const DefaultFaultRadius = fault.DefaultRadius

// VerifyDeadlockFreeFaulted checks the Dally-Seitz criterion for a faulted
// configuration: the channel dependency graph of the algorithm restricted
// to the surviving channels — under the fault-aware masking/misroute
// relation when pol is enabled, fault-oblivious otherwise — must be
// acyclic. It returns one offending cycle, or nil when deadlock free.
func VerifyDeadlockFreeFaulted(alg Routing, plan FaultPlan, pol FaultRoutingPolicy) ([]Channel, error) {
	topo := alg.Topology()
	state, err := fault.NewState(plan, topo)
	if err != nil {
		return nil, err
	}
	dims2 := 2 * topo.Dims()
	faulted := func(from NodeID, dir Direction) bool {
		return state.Faulted[int(from)*dims2+int(dir)]
	}
	rel := routing.Relation(alg)
	if pol.Enabled() {
		health := fault.NewHealth(topo, state, pol)
		rel = routing.Relation(routing.NewFaultAware(alg, health, pol))
	}
	return turnmodel.FromRoutingFaulted(topo, rel, faulted).FindCycle(), nil
}

// Resilience experiments: fixed offered load swept across link-failure
// rates with recovery on, tracing delivered fraction, throughput and
// latency as the network decays (the paper's fault-tolerance claims in
// quantitative form).
type (
	ResilienceSpec   = sim.ResilienceSpec
	ResilienceResult = sim.ResilienceResult
)

// ResilienceFigures returns the stock resilience experiments (16x16 mesh
// and binary 8-cube); ResilienceFigureByID looks one up.
func ResilienceFigures() []ResilienceSpec { return sim.ResilienceFigures() }
func ResilienceFigureByID(id string) (ResilienceSpec, bool) {
	return sim.ResilienceByID(id)
}

// Masking-versus-recovery comparison: the same resilience sweep run once
// per fault-handling mode (recovery only, in-network masking only, both),
// with common random numbers across modes and algorithms.
type (
	ResilienceMode          = sim.ResilienceMode
	ResilienceCompareResult = sim.ResilienceCompareResult
)

// ResilienceModes returns the three fault-handling configurations a
// RunSweep with SweepOptions.CompareModes contrasts.
func ResilienceModes() []ResilienceMode { return sim.ResilienceModes() }

// Adaptiveness analysis (Sections 3.4, 4.1 and 5).

// CountShortestPaths counts the shortest src->dst paths the algorithm
// permits (S_algorithm in the paper).
func CountShortestPaths(alg Routing, src, dst NodeID) int64 {
	return adaptiveness.CountPaths(alg, src, dst)
}

// AverageAdaptivenessRatio is the mean S_algorithm/S_f across all ordered
// pairs; the paper reports > 1/2 for the 2D partially adaptive algorithms.
func AverageAdaptivenessRatio(alg Routing) float64 { return adaptiveness.AverageRatio(alg) }

// PCubeShortestPaths is S_p-cube = h1! h0! (Section 5).
func PCubeShortestPaths(src, dst uint) int64 { return adaptiveness.PCube(src, dst) }

// PCubeChoices reports minimal and nonminimal-extra output choices at c
// toward d in an n-cube (the Section 5 table).
func PCubeChoices(c, d uint, n int) (minimal, extra int) {
	return adaptiveness.PCubeChoices(c, d, n)
}
