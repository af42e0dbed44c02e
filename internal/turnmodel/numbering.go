package turnmodel

import (
	"fmt"

	"turnmodel/internal/topology"
)

// Numbering assigns an integer to every channel of a topology. The
// deadlock-freedom proofs of Theorems 2, 3 and 5 work by exhibiting a
// numbering along which the algorithm routes every packet in strictly
// monotone order; by Dally and Seitz this implies an acyclic channel
// dependency graph and hence deadlock freedom.
type Numbering struct {
	Name string
	// Decreasing is true when routes must follow strictly decreasing
	// numbers (west-first, Theorem 2) and false when strictly
	// increasing (negative-first, Theorem 5; north-last, Theorem 3).
	Decreasing bool
	// Number maps a channel to its assigned number.
	Number func(ch topology.Channel) int
}

// WestFirstNumbering numbers the channels of an m x n 2D mesh so that the
// west-first algorithm routes along strictly decreasing numbers. It keeps
// the structure of Figure 6 — westward channels highest and decreasing the
// farther west; eastward, northward and southward channels lower and
// decreasing the farther east — encoded as a (phase, column, within-column)
// triple packed into one integer rather than the paper's two digits in
// base max(3m-2, n-1).
func WestFirstNumbering(m *topology.Mesh) Numbering {
	if m.Dims() != 2 {
		panic("turnmodel: WestFirstNumbering requires a 2D mesh")
	}
	mx, ny := m.Size(0), m.Size(1)
	return Numbering{
		Name:       "west-first",
		Decreasing: true,
		Number: func(ch topology.Channel) int {
			c := m.Coord(ch.From)
			x, y := c[0], c[1]
			var phase, major, minor int
			switch ch.Dir {
			case topology.West:
				phase, major, minor = 1, x, 0
			case topology.East:
				phase, major, minor = 0, mx-1-x, 0
			case topology.North:
				phase, major, minor = 0, mx-1-x, ny-1-y
			case topology.South:
				phase, major, minor = 0, mx-1-x, y
			default:
				panic(fmt.Sprintf("turnmodel: unexpected direction %v", ch.Dir))
			}
			return (phase*mx+major)*(2*ny) + minor
		},
	}
}

// NorthLastNumbering numbers the channels of a 2D mesh so that north-last
// routes along strictly increasing numbers (Theorem 3: the west-first
// numbering rotated, with order reversed). Northward channels form the
// highest phase, increasing the farther north. The remaining channels sit
// below, grouped by row and increasing the farther south; within a row,
// southward channels outrank westward and eastward ones because a packet
// may turn from west or east travel into a southward channel of the same
// row but never the reverse within the row.
func NorthLastNumbering(m *topology.Mesh) Numbering {
	if m.Dims() != 2 {
		panic("turnmodel: NorthLastNumbering requires a 2D mesh")
	}
	mx, ny := m.Size(0), m.Size(1)
	return Numbering{
		Name:       "north-last",
		Decreasing: false,
		Number: func(ch topology.Channel) int {
			c := m.Coord(ch.From)
			x, y := c[0], c[1]
			var phase, major, minor int
			switch ch.Dir {
			case topology.North:
				phase, major, minor = 1, y, 0
			case topology.South:
				phase, major, minor = 0, ny-1-y, mx
			case topology.West:
				phase, major, minor = 0, ny-1-y, mx-1-x
			case topology.East:
				phase, major, minor = 0, ny-1-y, x
			default:
				panic(fmt.Sprintf("turnmodel: unexpected direction %v", ch.Dir))
			}
			return (phase*ny+major)*(mx+1) + minor
		},
	}
}

// NegativeFirstNumbering implements the Theorem 5 numbering for an
// n-dimensional mesh: with K the sum of the k_i and X the coordinate sum
// of a channel's source node, positive channels are numbered K-n+X and
// negative channels K-n-X. Negative-first routes along strictly increasing
// numbers.
func NegativeFirstNumbering(m *topology.Mesh) Numbering {
	k := 0
	for d := 0; d < m.Dims(); d++ {
		k += m.Size(d)
	}
	n := m.Dims()
	return Numbering{
		Name:       "negative-first",
		Decreasing: false,
		Number: func(ch topology.Channel) int {
			c := m.Coord(ch.From)
			x := 0
			for _, v := range c {
				x += v
			}
			if ch.Dir.Positive() {
				return k - n + x
			}
			return k - n - x
		},
	}
}

// HexNegativeFirstNumbering extends the Theorem 5 construction to the
// hexagonal mesh (Section 7 future work). With the potential X = 2a + b of
// a channel's source node, every negative-phase direction (west (-1,0),
// southwest (0,-1), northwest (-1,+1)) strictly decreases X and every
// positive-phase direction strictly increases it, so numbering positive
// channels K+X and negative channels K-X makes negative-first hex routes
// strictly increasing. (The plain coordinate sum of Theorem 5 fails here:
// the northwest move leaves a+b unchanged.)
func HexNegativeFirstNumbering(h *topology.Hex) Numbering {
	k := 2*h.Size(0) + h.Size(1) // any constant above max |X| works
	return Numbering{
		Name:       "negative-first-hex",
		Decreasing: false,
		Number: func(ch topology.Channel) int {
			c := h.Coord(ch.From)
			x := 2*c[0] + c[1]
			if ch.Dir.Positive() {
				return k + x
			}
			return k - x
		},
	}
}

// Validate checks the numbering against the exact routing relation: every
// channel dependency the routing can create must follow the numbering's
// monotone order. It returns nil when the proof obligation holds and a
// descriptive error naming the violating pair otherwise.
func (nb Numbering) Validate(topo topology.Topology, candidates CandidateFunc) error {
	g := FromRouting(topo, candidates)
	var bad error
	g.ForEachEdge(func(c1, c2 topology.Channel) {
		if bad != nil {
			return
		}
		n1, n2 := nb.Number(c1), nb.Number(c2)
		if nb.Decreasing && n2 >= n1 {
			bad = fmt.Errorf("numbering %q not decreasing: %v (#%d) -> %v (#%d)", nb.Name, c1, n1, c2, n2)
		}
		if !nb.Decreasing && n2 <= n1 {
			bad = fmt.Errorf("numbering %q not increasing: %v (#%d) -> %v (#%d)", nb.Name, c1, n1, c2, n2)
		}
	})
	return bad
}

// ForEachEdge visits every dependency edge of the graph.
func (g *CDG) ForEachEdge(f func(c1, c2 topology.Channel)) {
	for v, ws := range g.adj {
		for _, w := range ws {
			f(g.chans[v].Channel, g.chans[w].Channel)
		}
	}
}
