package traffic

import (
	"math"
	"math/rand"
	"testing"

	"turnmodel/internal/topology"
)

func TestUniformNeverSelf(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	u := Uniform{Topo: m}
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, m.Nodes())
	for i := 0; i < 16000; i++ {
		d := u.Dest(5, rng)
		if d == 5 {
			t.Fatal("uniform produced a self destination")
		}
		counts[d]++
	}
	// Roughly uniform across the 15 other nodes.
	for node, c := range counts {
		if node == 5 {
			continue
		}
		if c < 800 || c > 1400 {
			t.Errorf("node %d received %d of 16000 (expect ~1067)", node, c)
		}
	}
	if u.Deterministic() {
		t.Error("uniform claims determinism")
	}
}

func TestMeshTranspose(t *testing.T) {
	m := topology.NewMesh2D(16, 16)
	tr := NewMeshTranspose(m)
	for x := 0; x < 16; x++ {
		for y := 0; y < 16; y++ {
			src := m.ID(topology.Coord{x, y})
			d := m.Coord(tr.Dest(src, nil))
			if d[0] != y || d[1] != x {
				t.Fatalf("transpose (%d,%d) -> %v, want (%d,%d)", x, y, d, y, x)
			}
		}
	}
	// Involution with 16 diagonal fixed points.
	fixed := 0
	for s := topology.NodeID(0); int(s) < m.Nodes(); s++ {
		d := tr.Dest(s, nil)
		if tr.Dest(d, nil) != s {
			t.Fatalf("transpose not an involution at %d", s)
		}
		if d == s {
			fixed++
		}
	}
	if fixed != 16 {
		t.Errorf("%d fixed points, want 16", fixed)
	}
	if got := InjectingFraction(tr, m); math.Abs(got-240.0/256.0) > 1e-12 {
		t.Errorf("InjectingFraction = %v, want 240/256", got)
	}
}

func TestMeshTransposePanics(t *testing.T) {
	for _, bad := range []*topology.Mesh{topology.NewMesh2D(4, 8), topology.NewMesh(4, 4, 4)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", bad.Name())
				}
			}()
			NewMeshTranspose(bad)
		}()
	}
}

func TestHypercubeTransposeMatchesPaperFormula(t *testing.T) {
	// Section 6: (x0,...,x7) -> (^x4, x5, x6, x7, ^x0, x1, x2, x3).
	h := topology.NewHypercube(8)
	tr := NewHypercubeTranspose(h)
	for s := uint(0); s < 256; s++ {
		bit := func(v uint, i int) uint { return (v >> uint(i)) & 1 }
		var want uint
		want |= (bit(s, 4) ^ 1) << 0
		want |= bit(s, 5) << 1
		want |= bit(s, 6) << 2
		want |= bit(s, 7) << 3
		want |= (bit(s, 0) ^ 1) << 4
		want |= bit(s, 1) << 5
		want |= bit(s, 2) << 6
		want |= bit(s, 3) << 7
		if got := tr.Dest(h.NodeFromBits(s), nil); got != h.NodeFromBits(want) {
			t.Fatalf("transpose(%08b) = %08b, want %08b", s, uint(got), want)
		}
	}
	// Involution.
	for s := topology.NodeID(0); s < 256; s++ {
		if tr.Dest(tr.Dest(s, nil), nil) != s {
			t.Fatalf("hypercube transpose not an involution at %d", s)
		}
	}
}

func TestHypercubeTransposePanicsOnOddDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewHypercubeTranspose(topology.NewHypercube(5))
}

func TestReverseFlip(t *testing.T) {
	h := topology.NewHypercube(8)
	rf := ReverseFlip{Cube: h}
	// (x0,...,x7) -> (^x7,...,^x0): spot-check a value.
	// src bits x0..x7 = 1,0,0,0,0,0,0,0 -> dest bits d_i = ^x_{7-i}:
	// d0..d6 = ^0 = 1 (x7..x1 are 0), d7 = ^x0 = 0.
	src := h.NodeFromBits(0b00000001)
	want := h.NodeFromBits(0b01111111)
	if got := rf.Dest(src, nil); got != want {
		t.Errorf("reverse-flip(%08b) = %08b, want %08b", 1, uint(got), uint(want))
	}
	for s := topology.NodeID(0); s < 256; s++ {
		if rf.Dest(rf.Dest(s, nil), nil) != s {
			t.Fatalf("reverse-flip not an involution at %d", s)
		}
	}
	// 2^(n/2) = 16 fixed points.
	if got := InjectingFraction(rf, h); math.Abs(got-240.0/256.0) > 1e-12 {
		t.Errorf("InjectingFraction = %v, want 240/256", got)
	}
}

func TestBitComplementAndReversal(t *testing.T) {
	h := topology.NewHypercube(4)
	bc := BitComplement{Topo: h}
	if got := bc.Dest(h.NodeFromBits(0b0101), nil); got != h.NodeFromBits(0b1010) {
		t.Errorf("bit-complement wrong: %04b", uint(got))
	}
	if got := InjectingFraction(bc, h); got != 1 {
		t.Errorf("bit-complement has fixed points: fraction %v", got)
	}
	br := BitReversal{Cube: h}
	if got := br.Dest(h.NodeFromBits(0b0011), nil); got != h.NodeFromBits(0b1100) {
		t.Errorf("bit-reversal wrong: %04b", uint(got))
	}
	// Bit-complement also mirrors mesh coordinates.
	m := topology.NewMesh2D(4, 4)
	mc := BitComplement{Topo: m}
	if got := m.Coord(mc.Dest(m.ID(topology.Coord{1, 3}), nil)); !got.Equal(topology.Coord{2, 0}) {
		t.Errorf("mesh complement of (1,3) = %v, want (2,0)", got)
	}
}

func TestHotspot(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	h := Hotspot{Topo: m, Hot: 5, Fraction: 0.5}
	rng := rand.New(rand.NewSource(9))
	hot := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		d := h.Dest(0, rng)
		if d == 0 {
			t.Fatal("hotspot produced self destination")
		}
		if d == 5 {
			hot++
		}
	}
	// ~50% direct hits plus ~1/15 of the uniform remainder.
	frac := float64(hot) / trials
	if frac < 0.48 || frac < 0.5*0.9 || frac > 0.62 {
		t.Errorf("hotspot fraction = %.3f, want ~0.53", frac)
	}
	// The hot node itself sends uniformly.
	if d := h.Dest(5, rng); d == 5 {
		t.Error("hot node sent to itself")
	}
	if h.Deterministic() {
		t.Error("hotspot claims determinism")
	}
}

// TestAveragePathLengths checks the paper's reported mean path lengths:
// 10.61 (uniform) vs 11.34 (transpose) hops in the 16x16 mesh, and 4.01
// (uniform) vs 4.27 (reverse-flip) hops in the 8-cube. Our exact values
// for uniform differ in the second decimal (10.67, 4.02) because the paper
// rounds measured rather than analytic values.
func TestAveragePathLengths(t *testing.T) {
	m := topology.NewMesh2D(16, 16)
	h := topology.NewHypercube(8)
	cases := []struct {
		name string
		got  float64
		want float64
		tol  float64
	}{
		{"mesh uniform", AveragePathLength(Uniform{Topo: m}, m), 10.61, 0.08},
		{"mesh transpose", AveragePathLength(NewMeshTranspose(m), m), 11.34, 0.01},
		{"cube uniform", AveragePathLength(Uniform{Topo: h}, h), 4.01, 0.01},
		{"cube reverse-flip", AveragePathLength(ReverseFlip{Cube: h}, h), 4.27, 0.01},
		{"cube transpose", AveragePathLength(NewHypercubeTranspose(h), h), 4.27, 0.01},
	}
	for _, c := range cases {
		if math.Abs(c.got-c.want) > c.tol {
			t.Errorf("%s: average path length %.4f, want %.2f±%.2f", c.name, c.got, c.want, c.tol)
		}
	}
	// The paper's explanation requires the nonuniform patterns to have
	// LONGER average paths despite their higher throughput.
	if AveragePathLength(NewMeshTranspose(m), m) <= AveragePathLength(Uniform{Topo: m}, m) {
		t.Error("mesh transpose should have longer average paths than uniform")
	}
	if AveragePathLength(ReverseFlip{Cube: h}, h) <= AveragePathLength(Uniform{Topo: h}, h) {
		t.Error("reverse-flip should have longer average paths than uniform")
	}
}

func TestAveragePathLengthPanicsOnRandomPattern(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	AveragePathLength(Hotspot{Topo: m, Hot: 0, Fraction: 0.1}, m)
}

func TestPatternNames(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	h := topology.NewHypercube(4)
	names := map[string]Pattern{
		"uniform":          Uniform{Topo: m},
		"matrix-transpose": NewMeshTranspose(m),
		"reverse-flip":     ReverseFlip{Cube: h},
		"bit-complement":   BitComplement{Topo: m},
		"bit-reversal":     BitReversal{Cube: h},
		"hotspot(10%)":     Hotspot{Topo: m, Hot: 0, Fraction: 0.1},
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("Name() = %q, want %q", p.Name(), want)
		}
	}
	// Both transposes share a name, so sweep tables line up across them.
	if got := NewHypercubeTranspose(h).Name(); got != "matrix-transpose" {
		t.Errorf("hypercube transpose Name() = %q, want %q", got, "matrix-transpose")
	}
}

// TestDeterministicAndInjectingFraction: the permutation patterns report
// Deterministic and the random ones do not, and InjectingFraction counts
// every node as a sender under a random pattern without drawing from it.
func TestDeterministicAndInjectingFraction(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	h := topology.NewHypercube(4)
	for _, tc := range []struct {
		p    Pattern
		want bool
	}{
		{Uniform{Topo: m}, false},
		{Hotspot{Topo: m, Hot: 0, Fraction: 0.1}, false},
		{NewMeshTranspose(m), true},
		{NewHypercubeTranspose(h), true},
		{ReverseFlip{Cube: h}, true},
		{BitComplement{Topo: m}, true},
		{BitReversal{Cube: h}, true},
	} {
		if got := tc.p.Deterministic(); got != tc.want {
			t.Errorf("%s: Deterministic() = %v, want %v", tc.p.Name(), got, tc.want)
		}
		if tc.want {
			continue
		}
		// A nil RNG would panic if the random pattern were drawn from.
		if got := InjectingFraction(tc.p, m); got != 1 {
			t.Errorf("%s: InjectingFraction = %v, want 1", tc.p.Name(), got)
		}
	}
	// Bit-reversal fixes the 2^(n/2) palindromic addresses.
	if got := InjectingFraction(BitReversal{Cube: h}, h); got != 12.0/16.0 {
		t.Errorf("bit-reversal InjectingFraction = %v, want 12/16", got)
	}
}

// TestBitComplementCoordinateFallback holds the coordinate path of
// BitComplement.Dest — the topologies without the numbering shortcut — to
// its definition on cube-connected cycles, hexagonal and octagonal meshes:
// every coordinate of the destination is the source's mirrored between its
// values at the first and last node, the pattern is an involution, and it
// is the point reflection of the node numbering, Nodes()-1-id.
func TestBitComplementCoordinateFallback(t *testing.T) {
	for _, topo := range []topology.Topology{
		topology.NewCCC(3), topology.NewHex(4, 3), topology.NewHex(3, 3),
		topology.NewOctagonal(3, 5), topology.NewOctagonal(4, 4),
	} {
		bc := BitComplement{Topo: topo}
		lo, hi := topo.Coord(0), topo.Coord(topology.NodeID(topo.Nodes()-1))
		for s := topology.NodeID(0); int(s) < topo.Nodes(); s++ {
			d := bc.Dest(s, nil)
			c, dc := topo.Coord(s), topo.Coord(d)
			for i := range c {
				if dc[i] != lo[i]+hi[i]-c[i] {
					t.Fatalf("%s: coordinate %d of the complement of %v is %d, want %d", topo.Name(), i, c, dc[i], lo[i]+hi[i]-c[i])
				}
			}
			if bc.Dest(d, nil) != s {
				t.Fatalf("%s: complement is not an involution at node %d", topo.Name(), s)
			}
			if want := topology.NodeID(topo.Nodes()-1) - s; d != want {
				t.Fatalf("%s: complement of node %d = %d, want %d", topo.Name(), s, d, want)
			}
		}
	}
}

func TestHypercubeTransposeGeneralizesToOtherEvenDims(t *testing.T) {
	// The construction is defined for any even n; it must remain an
	// involution with 2^(n/2) fixed points.
	for _, n := range []int{4, 6} {
		h := topology.NewHypercube(n)
		tr := NewHypercubeTranspose(h)
		fixed := 0
		for s := topology.NodeID(0); int(s) < h.Nodes(); s++ {
			if tr.Dest(tr.Dest(s, nil), nil) != s {
				t.Fatalf("n=%d: not an involution at %d", n, s)
			}
			if tr.Dest(s, nil) == s {
				fixed++
			}
		}
		if want := 1 << uint(n/2); fixed != want {
			t.Errorf("n=%d: %d fixed points, want %d", n, fixed, want)
		}
	}
}

// TestBitComplementMirrorsEveryCoordinate holds BitComplement's numbering
// shortcut on meshes, tori and hypercubes to its definition — every
// coordinate x_i becomes k_i-1-x_i — on every node.
func TestBitComplementMirrorsEveryCoordinate(t *testing.T) {
	for _, topo := range []topology.Topology{
		topology.NewMesh2D(16, 16), topology.NewMesh(3, 5, 2), topology.NewTorus(4, 3),
		topology.NewHypercube(8),
	} {
		bc := BitComplement{Topo: topo}
		for s := topology.NodeID(0); int(s) < topo.Nodes(); s++ {
			c := topo.Coord(s)
			for i := range c {
				c[i] = topo.Size(i) - 1 - c[i]
			}
			if got, want := bc.Dest(s, nil), topo.ID(c); got != want {
				t.Fatalf("%s: complement of node %d = %d, want %d", topo.Name(), s, got, want)
			}
		}
	}
}

// TestDestZeroAllocs: drawing a destination allocates nothing, for every
// pattern — generation calls Dest once per message.
func TestDestZeroAllocs(t *testing.T) {
	mesh := topology.NewMesh2D(16, 16)
	cube := topology.NewHypercube(8)
	torus := topology.NewTorus(8, 8)
	for _, tc := range []struct {
		pattern Pattern
		topo    topology.Topology
	}{
		{Uniform{Topo: mesh}, mesh},
		{NewMeshTranspose(mesh), mesh},
		{NewHypercubeTranspose(cube), cube},
		{ReverseFlip{Cube: cube}, cube},
		{BitComplement{Topo: mesh}, mesh},
		{BitComplement{Topo: torus}, torus},
		{BitComplement{Topo: cube}, cube},
		{BitReversal{Cube: cube}, cube},
		{Hotspot{Topo: mesh, Hot: 17, Fraction: 0.2}, mesh},
	} {
		rng := rand.New(rand.NewSource(1))
		nodes := tc.topo.Nodes()
		sum := 0
		allocs := testing.AllocsPerRun(20, func() {
			for s := 0; s < nodes; s++ {
				sum += int(tc.pattern.Dest(topology.NodeID(s), rng))
			}
		})
		if allocs != 0 {
			t.Errorf("%s on %s: %v allocations per %d destinations, want 0", tc.pattern.Name(), tc.topo.Name(), allocs, nodes)
		}
	}
}
