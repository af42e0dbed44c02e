package topology

import (
	"reflect"
	"slices"
	"testing"
)

// arithCoord is coordinate dim of a node by division and remainder: what
// coordAt computed before grids carried a coordinate table, and still
// computes for a grid too large for one.
func arithCoord(sizes []int, id NodeID, dim int) int {
	v := int(id)
	for i := 0; i < dim; i++ {
		v /= sizes[i]
	}
	return v % sizes[dim]
}

// arithMinimal and arithDistance are MinimalDirections and Distance computed
// from arithCoord: per dimension the sign of the difference on a mesh, the
// shorter way round the ring (both ways on a tie) on a torus.
func arithMinimal(sizes []int, wrap bool, from, to NodeID) []Direction {
	var ds []Direction
	for dim, k := range sizes {
		f, t := arithCoord(sizes, from, dim), arithCoord(sizes, to, dim)
		if f == t {
			continue
		}
		up := ((t-f)%k + k) % k
		switch {
		case !wrap && t > f, wrap && up < k-up:
			ds = append(ds, Dir(dim, true))
		case !wrap, wrap && k-up < up:
			ds = append(ds, Dir(dim, false))
		default:
			ds = append(ds, Dir(dim, false), Dir(dim, true))
		}
	}
	return ds
}

func arithDistance(sizes []int, wrap bool, from, to NodeID) int {
	d := 0
	for dim, k := range sizes {
		f, t := arithCoord(sizes, from, dim), arithCoord(sizes, to, dim)
		hops := max(f-t, t-f)
		if wrap {
			hops = min(hops, k-hops)
		}
		d += hops
	}
	return d
}

// TestCoordinateTableMatchesArithmetic holds everything that reads the
// coordinate table — CoordAt, Coord, MinimalDirections and its appending
// form, Distance — to the arithmetic it replaced, on meshes, tori and the
// 6- and 8-cube, and on a grid that has no table (a dimension longer than the
// table's int16 holds). The hypercubes' own methods, which read address bits
// instead, are held to it on every node pair, and to the Mesh loop they
// override.
func TestCoordinateTableMatchesArithmetic(t *testing.T) {
	type gridTopo interface {
		Topology
		MinimalAppender
		CoordAt(id NodeID, dim int) int
	}
	cases := []struct {
		topo      gridTopo
		sizes     []int
		wrap      bool
		tabulated bool
	}{
		{NewMesh2D(16, 16), []int{16, 16}, false, true},
		{NewMesh(3, 5, 2), []int{3, 5, 2}, false, true},
		{NewMesh(2, 40000), []int{2, 40000}, false, false},
		{NewTorus(4, 3), []int{4, 3}, true, true},
		{NewKaryNCube(5, 3), []int{5, 5, 5}, true, true},
		{NewTorus(40000, 2), []int{40000, 2}, true, false},
		{NewHypercube(6), []int{2, 2, 2, 2, 2, 2}, false, true},
		{NewHypercube(8), []int{2, 2, 2, 2, 2, 2, 2, 2}, false, true},
	}
	for _, tc := range cases {
		var g *grid
		switch topo := tc.topo.(type) {
		case *Mesh:
			g = &topo.grid
		case *Torus:
			g = &topo.grid
		case *Hypercube:
			g = &topo.grid
		}
		if (g.coords != nil) != tc.tabulated {
			t.Fatalf("%s: coordinate table present = %v, want %v", tc.topo.Name(), g.coords != nil, tc.tabulated)
		}
		nodes := tc.topo.Nodes()
		// Every node of a small grid; a stride through a large one that
		// still visits both ends of every dimension.
		step := 1
		if nodes > 4096 {
			step = 37
		}
		var sample []NodeID
		for id := 0; id < nodes; id += step {
			sample = append(sample, NodeID(id))
		}
		sample = append(sample, NodeID(nodes-1))
		for _, id := range sample {
			coord := tc.topo.Coord(id)
			for dim := range tc.sizes {
				want := arithCoord(tc.sizes, id, dim)
				if got := tc.topo.CoordAt(id, dim); got != want || coord[dim] != want {
					t.Fatalf("%s: node %d dimension %d: CoordAt = %d, Coord = %d, want %d", tc.topo.Name(), id, dim, got, coord[dim], want)
				}
			}
		}
		if len(sample) > 300 {
			sample = append(sample[:150:150], sample[len(sample)-150:]...)
		}
		var buf []Direction
		for _, from := range sample {
			for _, to := range sample {
				want := arithMinimal(tc.sizes, tc.wrap, from, to)
				if got := tc.topo.MinimalDirections(from, to); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: MinimalDirections(%d, %d) = %v, want %v", tc.topo.Name(), from, to, got, want)
				}
				buf = tc.topo.AppendMinimalDirections(buf[:0], from, to)
				if len(buf) != len(want) || len(want) > 0 && !reflect.DeepEqual(buf, want) {
					t.Fatalf("%s: AppendMinimalDirections(%d, %d) = %v, want %v", tc.topo.Name(), from, to, buf, want)
				}
				if h, ok := tc.topo.(*Hypercube); ok {
					mesh := h.Mesh.AppendMinimalDirections(nil, from, to)
					if !slices.Equal(buf, mesh) {
						t.Fatalf("%s: AppendMinimalDirections(%d, %d) = %v, the Mesh loop gives %v", tc.topo.Name(), from, to, buf, mesh)
					}
				}
				if got, want := tc.topo.Distance(from, to), arithDistance(tc.sizes, tc.wrap, from, to); got != want {
					t.Fatalf("%s: Distance(%d, %d) = %d, want %d", tc.topo.Name(), from, to, got, want)
				}
			}
		}
	}
}

// TestCoordinateTableBounded: a grid too large to tabulate in 4 MB — the
// 30-cube the analysis tools may build has 2^30 nodes — gets no table and
// costs no memory beyond its sizes.
func TestCoordinateTableBounded(t *testing.T) {
	if g := newGrid([]int{1000, 1000}); len(g.coords) != 2_000_000 {
		t.Fatalf("the 1000x1000 mesh has a table of %d entries, want 2000000", len(g.coords))
	}
	if g := newGrid([]int{1200, 1200}); g.coords != nil {
		t.Fatalf("a 1200x1200 mesh got a table of %d entries", len(g.coords))
	}
	cube := NewHypercube(30)
	if cube.grid.coords != nil {
		t.Fatal("the 30-cube got a coordinate table")
	}
	if got := cube.CoordAt(NodeID(1<<29|5), 29); got != 1 {
		t.Fatalf("30-cube: coordinate 29 of node 2^29+5 = %d, want 1", got)
	}
}
