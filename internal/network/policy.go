package network

import (
	"fmt"
	"math/rand"
	"sort"

	"turnmodel/internal/topology"
)

// OutputPolicy arbitrates when a header flit has several permitted output
// channels available (Section 6). The paper's simulations use the "xy"
// policy, which favors the channel along the lowest dimension.
type OutputPolicy interface {
	Name() string
	// Choose picks one of the candidate directions for which free
	// reports true. in is the direction the header arrived travelling
	// (topology.Invalid at the injection port). The boolean result is
	// false when no candidate is free, and then Choose must not have drawn
	// from rng: a refused header is not offered again until one of its
	// router's outputs is released (see Network.arbitrate), so a refusal
	// that consumed random numbers would make the stream depend on how
	// often refused headers are re-offered.
	Choose(cands []topology.Direction, free func(topology.Direction) bool, in topology.Direction, rng *rand.Rand) (topology.Direction, bool)
}

// LowestDimension is the paper's "xy" output selection policy: among the
// available output channels, take the one along the lowest dimension.
// Routing algorithms order their candidates by increasing dimension, so
// this is the first free candidate.
type LowestDimension struct{}

// Name implements OutputPolicy.
func (LowestDimension) Name() string { return "xy" }

// Choose implements OutputPolicy.
func (LowestDimension) Choose(cands []topology.Direction, free func(topology.Direction) bool, _ topology.Direction, _ *rand.Rand) (topology.Direction, bool) {
	for _, d := range cands {
		if free(d) {
			return d, true
		}
	}
	return 0, false
}

// RandomOutput picks uniformly among the available candidates. It is one
// of the alternative output selection policies whose effect the paper
// defers to [19]; it serves as an ablation against LowestDimension.
type RandomOutput struct{}

// Name implements OutputPolicy.
func (RandomOutput) Name() string { return "random" }

// Choose implements OutputPolicy.
func (RandomOutput) Choose(cands []topology.Direction, free func(topology.Direction) bool, _ topology.Direction, rng *rand.Rand) (topology.Direction, bool) {
	var avail [8]topology.Direction
	n := 0
	for _, d := range cands {
		if free(d) {
			if n < len(avail) {
				avail[n] = d
			}
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	if n > len(avail) {
		n = len(avail)
	}
	return avail[rng.Intn(n)], true
}

// StraightFirst prefers to keep travelling in the arrival direction,
// falling back to the lowest available dimension. Straight-through
// traversal avoids occupying the crossbar turn paths and tends to reduce
// the coupling between dimensions.
type StraightFirst struct{}

// Name implements OutputPolicy.
func (StraightFirst) Name() string { return "straight-first" }

// Choose implements OutputPolicy.
func (StraightFirst) Choose(cands []topology.Direction, free func(topology.Direction) bool, in topology.Direction, _ *rand.Rand) (topology.Direction, bool) {
	if in != topology.Invalid {
		for _, d := range cands {
			if d == in && free(d) {
				return d, true
			}
		}
	}
	for _, d := range cands {
		if free(d) {
			return d, true
		}
	}
	return 0, false
}

// InputPolicy arbitrates when header flits in several input buffers of one
// router compete for output channels in the same cycle: it decides the
// order in which they claim channels.
//
// The engine asks for a header's key once, when the header enters a
// buffer, and files the header among its router's waiters at that position
// (see engine.WaitTable) instead of re-sorting the competitors every
// cycle. A policy must therefore derive the key only from state that
// cannot change while the header waits in that buffer — the cycle it
// arrived there, anything fixed at packet creation — and never from
// mutable state such as how long it has been blocked.
type InputPolicy interface {
	Name() string
	// Key is the header's priority at its router: a lower key is served
	// first, and equal keys are served in packet-ID order, which keeps
	// the order total, deterministic and fair.
	Key(w *worm) int64
}

// LocalFCFS is the paper's input selection policy: it decides in favor of
// the header flits that arrived in the router first.
type LocalFCFS struct{}

// Name implements InputPolicy.
func (LocalFCFS) Name() string { return "local-fcfs" }

// Key implements InputPolicy: the cycle the header entered its buffer.
func (LocalFCFS) Key(w *worm) int64 { return w.headerArrival }

// OldestFirst serves the header of the oldest packet first (global age
// arbitration), an alternative fairness policy.
type OldestFirst struct{}

// Name implements InputPolicy.
func (OldestFirst) Name() string { return "oldest-first" }

// Key implements InputPolicy: the cycle the packet was created.
func (OldestFirst) Key(w *worm) int64 { return w.pkt.Created }

// The policy registries mirror routing.New/routing.Names: policies are
// selected by name (with a few historical aliases), so CLIs and config
// files need no per-policy constructors. The canonical name of a policy is
// its Name() method; aliases map to the same value.

var outputPolicies = map[string]OutputPolicy{
	"xy":               LowestDimension{},
	"lowest-dimension": LowestDimension{},
	"random":           RandomOutput{},
	"straight-first":   StraightFirst{},
	"straight":         StraightFirst{},
}

var inputPolicies = map[string]InputPolicy{
	"local-fcfs":   LocalFCFS{},
	"fcfs":         LocalFCFS{},
	"oldest-first": OldestFirst{},
	"oldest":       OldestFirst{},
}

// NewOutputPolicy resolves an output selection policy by name or alias.
func NewOutputPolicy(name string) (OutputPolicy, error) {
	if p, ok := outputPolicies[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("network: unknown output policy %q (have %v)", name, OutputPolicyNames())
}

// NewInputPolicy resolves an input selection policy by name or alias.
func NewInputPolicy(name string) (InputPolicy, error) {
	if p, ok := inputPolicies[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("network: unknown input policy %q (have %v)", name, InputPolicyNames())
}

// OutputPolicyNames lists the canonical output policy names, sorted.
func OutputPolicyNames() []string { return canonicalNames(outputPolicies) }

// InputPolicyNames lists the canonical input policy names, sorted.
func InputPolicyNames() []string { return canonicalNames(inputPolicies) }

func canonicalNames[P interface{ Name() string }](m map[string]P) []string {
	seen := map[string]bool{}
	var names []string
	for _, p := range m {
		if n := p.Name(); !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}
