package routing

import (
	"fmt"
	"sort"

	"turnmodel/internal/topology"
)

// New constructs the named algorithm on the given topology. Recognized
// names are those reported by Names; aliases "xy" and "e-cube" resolve to
// dimension-order routing on the matching topology.
func New(name string, topo topology.Topology) (Algorithm, error) {
	mesh, isMesh := topo.(*topology.Mesh)
	hyper, isHyper := topo.(*topology.Hypercube)
	torus, isTorus := topo.(*topology.Torus)
	hex, isHex := topo.(*topology.Hex)
	oct, isOct := topo.(*topology.Octagonal)
	// A hypercube is a mesh. The 2D mesh algorithms get its Mesh; the
	// n-dimensional ones get nmesh, the hypercube itself, whose minimal
	// directions come from its address bits.
	var nmesh topology.Topology
	if isMesh {
		nmesh = mesh
	}
	if isHyper {
		mesh, isMesh, nmesh = &hyper.Mesh, true, hyper
	}
	need := func(cond bool, what string) error {
		if cond {
			return nil
		}
		return fmt.Errorf("routing: %q requires %s; have %s", name, what, topo.Name())
	}
	switch name {
	case "xy", "e-cube", "dimension-order", "dor":
		return DimensionOrder(topo), nil
	case "west-first", "wf":
		if err := need(isMesh && mesh.Dims() == 2, "a 2D mesh"); err != nil {
			return nil, err
		}
		return WestFirst(mesh), nil
	case "north-last", "nl":
		if err := need(isMesh && mesh.Dims() == 2, "a 2D mesh"); err != nil {
			return nil, err
		}
		return NorthLast(mesh), nil
	case "negative-first", "nf":
		if isTorus {
			return NegativeFirstTorus(torus), nil
		}
		if isHex {
			return NegativeFirstHex(hex), nil
		}
		if isOct {
			return NegativeFirstOctagonal(oct), nil
		}
		if err := need(isMesh, "a mesh"); err != nil {
			return nil, err
		}
		return NegativeFirst(nmesh), nil
	case "abonf":
		if err := need(isMesh, "a mesh"); err != nil {
			return nil, err
		}
		return ABONF(nmesh), nil
	case "abopl":
		if err := need(isMesh, "a mesh"); err != nil {
			return nil, err
		}
		return ABOPL(nmesh), nil
	case "p-cube", "pcube":
		if err := need(isHyper, "a hypercube"); err != nil {
			return nil, err
		}
		return PCube(hyper), nil
	case "p-cube-nonminimal":
		if err := need(isHyper, "a hypercube"); err != nil {
			return nil, err
		}
		return NonminimalPCube(hyper), nil
	case "odd-even":
		if err := need(isMesh && mesh.Dims() == 2 && !isHyper, "a 2D mesh"); err != nil {
			return nil, err
		}
		return OddEven(mesh), nil
	case "fully-adaptive":
		return FullyAdaptive(topo), nil
	case "west-first+wrap":
		if err := need(isTorus && torus.Dims() == 2, "a 2D torus"); err != nil {
			return nil, err
		}
		return WestFirstWrap(torus), nil
	case "north-last+wrap":
		if err := need(isTorus && torus.Dims() == 2, "a 2D torus"); err != nil {
			return nil, err
		}
		return NorthLastWrap(torus), nil
	case "negative-first+wrap":
		if err := need(isTorus, "a torus"); err != nil {
			return nil, err
		}
		return NegativeFirstWrap(torus), nil
	case "dimension-order+wrap":
		if err := need(isTorus, "a torus"); err != nil {
			return nil, err
		}
		return DimensionOrderWrap(torus), nil
	}
	return nil, fmt.Errorf("routing: unknown algorithm %q (known: %v)", name, Names())
}

// Names lists the canonical algorithm names New accepts, sorted.
func Names() []string {
	names := []string{
		"dimension-order", "xy", "e-cube",
		"west-first", "north-last", "negative-first",
		"abonf", "abopl", "p-cube", "p-cube-nonminimal", "odd-even",
		"fully-adaptive",
		"west-first+wrap", "north-last+wrap", "negative-first+wrap", "dimension-order+wrap",
	}
	sort.Strings(names)
	return names
}
