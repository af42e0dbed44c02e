package sim

import (
	"turnmodel/internal/network"
	"turnmodel/internal/topology"
	"turnmodel/internal/vc"
	"turnmodel/internal/vcnet"
)

// simulator abstracts the two engines (physical-channel and
// virtual-channel) behind the measurement protocol of Run.
type simulator interface {
	Step() error
	Enqueue(src, dst topology.NodeID, length int) *network.Packet
	Cycle() int64
	SetInjectionHorizon(cycle int64)
	FlitsConsumed() int64
	InFlight() int
	MaxQueueLen() int
	TakeDelivered() []*network.Packet
	PacketsDelivered() int64
	PacketsAborted() int64
	PacketsRetried() int64
	PacketsDropped() int64
	FaultEvents() int64
	MaskedFaults() int64
	MisrouteHops() int64
	FlushBlocked()
}

// VCConfig describes one run on the virtual-channel simulator.
type VCConfig struct {
	// Routing is the virtual-channel routing algorithm.
	Routing vc.Algorithm
	// RunParams carry the simulator-independent parameters, exactly as
	// in Config.
	RunParams
}

// RunVC executes one virtual-channel simulation with the same generation
// and measurement protocol as Run.
func RunVC(cfg VCConfig) Result {
	params := cfg.RunParams.withDefaults()
	topo := cfg.Routing.Topology()
	probe, coll := params.instrument(topo)
	net := vcnet.New(vcnet.Config{
		Routing:          cfg.Routing,
		WatchdogCycles:   cfg.WatchdogCycles,
		FaultPlan:        cfg.FaultPlan,
		Recovery:         cfg.Recovery,
		FaultRouting:     cfg.FaultRouting,
		Probe:            probe,
		DisableEventSkip: cfg.DisableEventSkip,
	})
	return measure(params, cfg.Routing.Name(), topo, net, coll, nil)
}
