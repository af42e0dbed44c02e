// Package traffic implements the message workloads of Section 6 — uniform,
// matrix-transpose (mesh and hypercube) and reverse-flip — plus several
// standard synthetic patterns used as extensions (bit-complement,
// bit-reversal, hotspot). A pattern maps a source node to a destination;
// self-addressed pairs are reported so generators can skip them, matching
// the paper's average path lengths (e.g. 4.27 hops for reverse-flip on the
// 8-cube, which presumes fixed points do not inject).
package traffic

import (
	"fmt"
	"math/rand"

	"turnmodel/internal/topology"
)

// Pattern produces destinations for messages originating at a node.
type Pattern interface {
	// Name identifies the pattern.
	Name() string
	// Dest returns the destination for a message from src. It may equal
	// src (a fixed point of a permutation pattern); such messages are
	// consumed locally and should not be injected.
	Dest(src topology.NodeID, rng *rand.Rand) topology.NodeID
	// Deterministic reports whether Dest ignores the RNG (permutation
	// patterns), which makes average path lengths computable exactly.
	Deterministic() bool
}

// Uniform sends each message to any of the other nodes with equal
// probability.
type Uniform struct {
	Topo topology.Topology
}

// Name implements Pattern.
func (u Uniform) Name() string { return "uniform" }

// Deterministic implements Pattern.
func (u Uniform) Deterministic() bool { return false }

// Dest implements Pattern. The result is never src.
func (u Uniform) Dest(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	d := topology.NodeID(rng.Intn(u.Topo.Nodes() - 1))
	if d >= src {
		d++
	}
	return d
}

// MeshTranspose sends each message from the node at row i, column j of a
// square 2D mesh to the node at row j, column i. With dimension 0 as x
// (column) and dimension 1 as y (row), that swaps the two coordinates.
type MeshTranspose struct {
	Mesh *topology.Mesh
}

// NewMeshTranspose validates that the mesh is 2D and square.
func NewMeshTranspose(m *topology.Mesh) MeshTranspose {
	if m.Dims() != 2 || m.Size(0) != m.Size(1) {
		panic(fmt.Sprintf("traffic: matrix transpose needs a square 2D mesh, have %s", m.Name()))
	}
	return MeshTranspose{Mesh: m}
}

// Name implements Pattern.
func (t MeshTranspose) Name() string { return "matrix-transpose" }

// Deterministic implements Pattern.
func (t MeshTranspose) Deterministic() bool { return true }

// Dest implements Pattern. It reads the two coordinates with CoordAt and
// numbers the swapped pair directly, so it allocates nothing.
func (t MeshTranspose) Dest(src topology.NodeID, _ *rand.Rand) topology.NodeID {
	x, y := t.Mesh.CoordAt(src, 0), t.Mesh.CoordAt(src, 1)
	return topology.NodeID(y + x*t.Mesh.Size(0))
}

// HypercubeTranspose is the paper's hypercube matrix-transpose: the
// pattern induced by embedding a 16x16 mesh in the binary 8-cube so that
// mesh neighbors are hypercube neighbors and transposing the mesh. On
// addresses it sends (x0,...,x7) to (^x4, x5, x6, x7, ^x0, x1, x2, x3).
// The same construction generalizes to any even n: the destination's low
// half is the complemented-leading-bit rotation of the source's high half
// and vice versa.
type HypercubeTranspose struct {
	Cube *topology.Hypercube
}

// NewHypercubeTranspose validates that the cube has even dimension.
func NewHypercubeTranspose(h *topology.Hypercube) HypercubeTranspose {
	if h.Dims()%2 != 0 {
		panic("traffic: hypercube transpose needs an even-dimensional cube")
	}
	return HypercubeTranspose{Cube: h}
}

// Name implements Pattern.
func (t HypercubeTranspose) Name() string { return "matrix-transpose" }

// Deterministic implements Pattern.
func (t HypercubeTranspose) Deterministic() bool { return true }

// Dest implements Pattern.
func (t HypercubeTranspose) Dest(src topology.NodeID, _ *rand.Rand) topology.NodeID {
	n := t.Cube.Dims()
	half := n / 2
	x := t.Cube.Bits(src)
	var d uint
	for i := 0; i < n; i++ {
		// d_i = x_{i+half mod n}, complemented for i = 0 and i = half.
		b := (x >> uint((i+half)%n)) & 1
		if i == 0 || i == half {
			b ^= 1
		}
		d |= b << uint(i)
	}
	return t.Cube.NodeFromBits(d)
}

// ReverseFlip sends each message from (x0,...,x_{n-1}) to
// (^x_{n-1},...,^x0): the address is bit-reversed and complemented.
type ReverseFlip struct {
	Cube *topology.Hypercube
}

// Name implements Pattern.
func (r ReverseFlip) Name() string { return "reverse-flip" }

// Deterministic implements Pattern.
func (r ReverseFlip) Deterministic() bool { return true }

// Dest implements Pattern.
func (r ReverseFlip) Dest(src topology.NodeID, _ *rand.Rand) topology.NodeID {
	n := r.Cube.Dims()
	x := r.Cube.Bits(src)
	var d uint
	for i := 0; i < n; i++ {
		b := (x >> uint(n-1-i)) & 1
		d |= (b ^ 1) << uint(i)
	}
	return r.Cube.NodeFromBits(d)
}

// BitComplement sends each message to the node with every coordinate
// mirrored: coordinate x_i becomes k_i-1-x_i, or in general lo_i+hi_i-x_i
// over the values it takes — a point reflection through the network's
// centre. On a hypercube this is the address complement, the classic worst
// case for dimension-order routing.
type BitComplement struct {
	Topo topology.Topology
}

// Name implements Pattern.
func (b BitComplement) Name() string { return "bit-complement" }

// Deterministic implements Pattern.
func (b BitComplement) Deterministic() bool { return true }

// Dest implements Pattern. A mesh, torus or hypercube numbers its nodes as
// mixed-radix numerals of their coordinates, so mirroring every coordinate
// takes node id to Nodes()-1-id, with no coordinate vector to allocate.
// Other topologies mirror each coordinate between its values at the first
// and the last node, the two ends of its range: a hexagonal or octagonal
// mesh's derived coordinates (its third axis, its diagonals) span negative
// values, so k_i-1-x_i would not be a coordinate at all.
func (b BitComplement) Dest(src topology.NodeID, _ *rand.Rand) topology.NodeID {
	switch b.Topo.(type) {
	case *topology.Mesh, *topology.Torus, *topology.Hypercube:
		return topology.NodeID(b.Topo.Nodes()-1) - src
	}
	c := b.Topo.Coord(src)
	lo, hi := b.Topo.Coord(0), b.Topo.Coord(topology.NodeID(b.Topo.Nodes()-1))
	for i := range c {
		c[i] = lo[i] + hi[i] - c[i]
	}
	return b.Topo.ID(c)
}

// BitReversal sends (x0,...,x_{n-1}) to (x_{n-1},...,x0) on a hypercube.
type BitReversal struct {
	Cube *topology.Hypercube
}

// Name implements Pattern.
func (r BitReversal) Name() string { return "bit-reversal" }

// Deterministic implements Pattern.
func (r BitReversal) Deterministic() bool { return true }

// Dest implements Pattern.
func (r BitReversal) Dest(src topology.NodeID, _ *rand.Rand) topology.NodeID {
	n := r.Cube.Dims()
	x := r.Cube.Bits(src)
	var d uint
	for i := 0; i < n; i++ {
		d |= ((x >> uint(n-1-i)) & 1) << uint(i)
	}
	return r.Cube.NodeFromBits(d)
}

// Hotspot sends each message to a designated hot node with probability
// Fraction and uniformly otherwise — the hot-spot workload the paper's
// introduction motivates adaptiveness with.
type Hotspot struct {
	Topo     topology.Topology
	Hot      topology.NodeID
	Fraction float64
}

// Name implements Pattern.
func (h Hotspot) Name() string { return fmt.Sprintf("hotspot(%.0f%%)", h.Fraction*100) }

// Deterministic implements Pattern.
func (h Hotspot) Deterministic() bool { return false }

// Dest implements Pattern.
func (h Hotspot) Dest(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	if src != h.Hot && rng.Float64() < h.Fraction {
		return h.Hot
	}
	return Uniform{h.Topo}.Dest(src, rng)
}

// InjectingFraction is the fraction of nodes that actually inject traffic:
// fixed points of a deterministic pattern address themselves, are consumed
// locally, and never enter the network. Random patterns inject everywhere.
func InjectingFraction(p Pattern, topo topology.Topology) float64 {
	if !p.Deterministic() {
		return 1
	}
	inject := 0
	for s := topology.NodeID(0); int(s) < topo.Nodes(); s++ {
		if p.Dest(s, nil) != s {
			inject++
		}
	}
	return float64(inject) / float64(topo.Nodes())
}

// AveragePathLength computes the exact mean shortest-path length of a
// deterministic pattern, excluding fixed points (which never inject), or
// the exact mean over all ordered pairs for Uniform. It panics for other
// nondeterministic patterns.
func AveragePathLength(p Pattern, topo topology.Topology) float64 {
	total, count := 0, 0
	if _, ok := p.(Uniform); ok {
		for s := topology.NodeID(0); int(s) < topo.Nodes(); s++ {
			for d := topology.NodeID(0); int(d) < topo.Nodes(); d++ {
				if s == d {
					continue
				}
				total += topo.Distance(s, d)
				count++
			}
		}
		return float64(total) / float64(count)
	}
	if !p.Deterministic() {
		panic("traffic: AveragePathLength needs a deterministic pattern or Uniform")
	}
	for s := topology.NodeID(0); int(s) < topo.Nodes(); s++ {
		d := p.Dest(s, nil)
		if d == s {
			continue
		}
		total += topo.Distance(s, d)
		count++
	}
	return float64(total) / float64(count)
}
