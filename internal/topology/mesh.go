package topology

import (
	"fmt"
	"math/bits"
)

// Mesh is an n-dimensional mesh: k_0 x k_1 x ... x k_{n-1} nodes where two
// nodes are neighbors iff their coordinates differ by one in exactly one
// dimension. Boundary nodes lack the channels that would leave the mesh.
type Mesh struct {
	grid
	name string
}

// NewMesh builds an n-dimensional mesh with the given per-dimension sizes.
// It panics if any size is below 2 (the paper requires k_i >= 2).
func NewMesh(sizes ...int) *Mesh {
	return &Mesh{grid: newGrid(sizes), name: "mesh(" + sizesString(sizes) + ")"}
}

// NewMesh2D builds the m x n two-dimensional mesh used in Sections 2-3,
// with dimension 0 as x (west/east) and dimension 1 as y (south/north).
func NewMesh2D(m, n int) *Mesh { return NewMesh(m, n) }

// Name implements Topology.
func (m *Mesh) Name() string { return m.name }

// Neighbor implements Topology. The second result is false when the channel
// would cross the mesh boundary.
func (m *Mesh) Neighbor(id NodeID, d Direction) (NodeID, bool) {
	if !d.Valid(m.Dims()) {
		return 0, false
	}
	dim := d.Dim()
	x := m.coordAt(id, dim)
	nx := x + d.Delta()
	if nx < 0 || nx >= m.sizes[dim] {
		return 0, false
	}
	return id + NodeID(d.Delta()*m.strides[dim]), true
}

// Wraparound implements Topology; meshes have no wraparound channels.
func (m *Mesh) Wraparound(NodeID, Direction) bool { return false }

// MinimalDirections implements Topology.
func (m *Mesh) MinimalDirections(from, to NodeID) []Direction {
	var ds []Direction
	for dim := 0; dim < m.Dims(); dim++ {
		f, t := m.coordAt(from, dim), m.coordAt(to, dim)
		switch {
		case t < f:
			ds = append(ds, Dir(dim, false))
		case t > f:
			ds = append(ds, Dir(dim, true))
		}
	}
	return ds
}

// AppendMinimalDirections implements MinimalAppender: the allocation-free
// form of MinimalDirections. Hypercube overrides both with loops over the
// bits in which the addresses differ, which produce the same directions in
// the same order for k_i = 2.
func (m *Mesh) AppendMinimalDirections(dst []Direction, from, to NodeID) []Direction {
	for dim := 0; dim < m.Dims(); dim++ {
		f, t := m.coordAt(from, dim), m.coordAt(to, dim)
		switch {
		case t < f:
			dst = append(dst, Dir(dim, false))
		case t > f:
			dst = append(dst, Dir(dim, true))
		}
	}
	return dst
}

// Distance implements Topology (Manhattan distance).
func (m *Mesh) Distance(from, to NodeID) int {
	d := 0
	for dim := 0; dim < m.Dims(); dim++ {
		f, t := m.coordAt(from, dim), m.coordAt(to, dim)
		if f > t {
			d += f - t
		} else {
			d += t - f
		}
	}
	return d
}

// Channels implements Topology.
func (m *Mesh) Channels() []Channel {
	var chs []Channel
	for id := NodeID(0); int(id) < m.nodes; id++ {
		for _, d := range Directions(m.Dims()) {
			if to, ok := m.Neighbor(id, d); ok {
				chs = append(chs, Channel{From: id, To: to, Dir: d})
			}
		}
	}
	return chs
}

var _ Topology = (*Mesh)(nil)

// Hypercube is a binary n-cube: the n-dimensional mesh with k_i = 2 for all
// i, equivalently the 2-ary n-cube. Node IDs coincide with the binary
// addresses used by the e-cube and p-cube routing algorithms: bit i of the
// address is coordinate x_i.
type Hypercube struct {
	Mesh
}

// NewHypercube builds a binary n-cube with 2^n nodes.
func NewHypercube(n int) *Hypercube {
	if n < 1 {
		panic("topology: hypercube needs n >= 1")
	}
	if n > 30 {
		panic("topology: hypercube dimension too large")
	}
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 2
	}
	h := &Hypercube{Mesh: *NewMesh(sizes...)}
	h.Mesh.name = fmt.Sprintf("hypercube(%d)", n)
	return h
}

// Bits returns the node's binary address; bit i is coordinate x_i.
// For hypercubes the dense node index already is that address.
func (h *Hypercube) Bits(id NodeID) uint { return uint(id) }

// NodeFromBits converts a binary address to a NodeID.
func (h *Hypercube) NodeFromBits(bits uint) NodeID { return NodeID(bits) }

// Distance is the Hamming distance between the two addresses.
func (h *Hypercube) Distance(from, to NodeID) int {
	x := uint(from) ^ uint(to)
	d := 0
	for x != 0 {
		x &= x - 1
		d++
	}
	return d
}

// MinimalDirections lists one productive direction per differing address
// bit, ordered by increasing dimension.
func (h *Hypercube) MinimalDirections(from, to NodeID) []Direction {
	return h.AppendMinimalDirections(nil, from, to)
}

// AppendMinimalDirections implements MinimalAppender: MinimalDirections
// without the allocation, one direction per set bit of from^to, lowest
// first — the order of the inherited Mesh loop, without its coordinate
// reads.
func (h *Hypercube) AppendMinimalDirections(dst []Direction, from, to NodeID) []Direction {
	for diff := uint(from) ^ uint(to); diff != 0; diff &= diff - 1 {
		dim := bits.TrailingZeros(diff)
		dst = append(dst, Dir(dim, uint(to)&(1<<uint(dim)) != 0))
	}
	return dst
}

var _ Topology = (*Hypercube)(nil)
