// Package topology implements the direct-network topologies studied in
// Glass & Ni, "The Turn Model for Adaptive Routing": n-dimensional meshes,
// k-ary n-cubes (tori), and hypercubes. A topology is a set of nodes joined
// by pairs of unidirectional channels; every channel travels in one of the
// 2n virtual directions of the network.
package topology

import (
	"fmt"
	"math"
	"slices"
)

// NodeID is a dense node index in [0, Nodes()).
type NodeID int

// Coord is a node coordinate vector (x_0, x_1, ..., x_{n-1}).
type Coord []int

// Equal reports whether two coordinate vectors are identical.
func (c Coord) Equal(o Coord) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the coordinate vector.
func (c Coord) Clone() Coord {
	out := make(Coord, len(c))
	copy(out, c)
	return out
}

func (c Coord) String() string { return fmt.Sprint([]int(c)) }

// Channel is one unidirectional link: it leaves From's output port Dir and
// enters To's input port Dir. Wrap marks torus wraparound channels, which
// the turn model treats as a separate channel class (Step 1 / Step 5).
type Channel struct {
	From NodeID
	To   NodeID
	Dir  Direction
	Wrap bool
}

func (ch Channel) String() string {
	w := ""
	if ch.Wrap {
		w = " wrap"
	}
	return fmt.Sprintf("%d-%s->%d%s", ch.From, ch.Dir, ch.To, w)
}

// Topology describes a direct network. Implementations must be immutable
// and safe for concurrent use.
type Topology interface {
	// Name is a short human-readable identifier such as "mesh(16x16)".
	Name() string
	// Dims reports the number of dimensions n.
	Dims() int
	// Size reports k_i, the number of nodes along dimension dim.
	Size(dim int) int
	// Nodes reports the total node count.
	Nodes() int
	// Coord decodes a node index into coordinates.
	Coord(id NodeID) Coord
	// ID encodes coordinates into a node index.
	ID(c Coord) NodeID
	// Neighbor returns the node reached by the channel leaving id in
	// direction d, and whether such a channel exists (mesh boundary
	// nodes lack some channels).
	Neighbor(id NodeID, d Direction) (NodeID, bool)
	// Wraparound reports whether the channel leaving id in direction d
	// is a torus wraparound channel.
	Wraparound(id NodeID, d Direction) bool
	// MinimalDirections lists the productive directions: those whose
	// channels lie on some shortest path from `from` to `to`. The result
	// is ordered by increasing dimension (the paper's "xy" output
	// selection policy relies on this order).
	MinimalDirections(from, to NodeID) []Direction
	// Distance is the length of a shortest path between the nodes.
	Distance(from, to NodeID) int
	// Channels enumerates every unidirectional channel once.
	Channels() []Channel
}

// grid carries the coordinate arithmetic shared by meshes and tori.
type grid struct {
	sizes   []int
	strides []int
	nodes   int
	// coords is the node-major coordinate table: coordinate dim of node id
	// is coords[id*dims+dim]. Every routing decision reads 2*dims
	// coordinates, and a load is cheaper than the division and remainder
	// that derive one. It is nil for a grid too large to tabulate (see
	// maxCoordEntries), which computes its coordinates instead.
	coords []int16
}

// maxCoordEntries bounds the coordinate table at 4 MB: room for a 1000x1000
// mesh, while a 30-cube — a legal topology for the analysis tools, which
// never simulate it — is not tabulated.
const maxCoordEntries = 1 << 21

func newGrid(sizes []int) grid {
	if len(sizes) == 0 {
		panic("topology: need at least one dimension")
	}
	g := grid{sizes: append([]int(nil), sizes...)}
	g.strides = make([]int, len(sizes))
	g.nodes = 1
	for i, k := range sizes {
		if k < 2 {
			panic(fmt.Sprintf("topology: dimension %d has size %d; need k_i >= 2", i, k))
		}
		g.strides[i] = g.nodes
		g.nodes *= k
	}
	dims := len(sizes)
	if g.nodes*dims > maxCoordEntries || slices.Max(sizes) > math.MaxInt16 {
		return g
	}
	// One pass: each node's row is its predecessor's, incremented with
	// carry like an odometer (dimension 0 varies fastest).
	g.coords = make([]int16, g.nodes*dims)
	for row := dims; row < len(g.coords); row += dims {
		copy(g.coords[row:row+dims], g.coords[row-dims:row])
		for i := 0; ; i++ {
			if g.coords[row+i]++; int(g.coords[row+i]) < sizes[i] {
				break
			}
			g.coords[row+i] = 0
		}
	}
	return g
}

func (g *grid) Dims() int        { return len(g.sizes) }
func (g *grid) Size(dim int) int { return g.sizes[dim] }
func (g *grid) Nodes() int       { return g.nodes }

func (g *grid) Coord(id NodeID) Coord {
	if id < 0 || int(id) >= g.nodes {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", id, g.nodes))
	}
	c := make(Coord, len(g.sizes))
	v := int(id)
	for i, k := range g.sizes {
		c[i] = v % k
		v /= k
	}
	return c
}

func (g *grid) ID(c Coord) NodeID {
	if len(c) != len(g.sizes) {
		panic(fmt.Sprintf("topology: coordinate %v has %d dims; topology has %d", c, len(c), len(g.sizes)))
	}
	id := 0
	for i, x := range c {
		if x < 0 || x >= g.sizes[i] {
			panic(fmt.Sprintf("topology: coordinate %v out of range in dimension %d", c, i))
		}
		id += x * g.strides[i]
	}
	return NodeID(id)
}

// coordAt returns coordinate i of a node without allocating.
func (g *grid) coordAt(id NodeID, dim int) int {
	if g.coords != nil {
		return int(g.coords[int(id)*len(g.sizes)+dim])
	}
	return (int(id) / g.strides[dim]) % g.sizes[dim]
}

// CoordAt returns a single coordinate of a node without allocating the
// full Coord vector; it is the hot-loop counterpart of Coord, promoted to
// every grid-based topology.
func (g *grid) CoordAt(id NodeID, dim int) int { return g.coordAt(id, dim) }

// MinimalAppender is implemented by topologies that can append their
// MinimalDirections into a caller-provided buffer. The contract is exact:
// AppendMinimalDirections(dst, from, to) appends the same directions in
// the same order MinimalDirections(from, to) returns, reusing dst's
// storage. The simulators' step loops use it to keep routing decisions
// allocation-free.
type MinimalAppender interface {
	AppendMinimalDirections(dst []Direction, from, to NodeID) []Direction
}

func sizesString(sizes []int) string {
	s := ""
	for i, k := range sizes {
		if i > 0 {
			s += "x"
		}
		s += fmt.Sprint(k)
	}
	return s
}
