package vc

import (
	"testing"

	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

func TestDoubleYDeadlockFree(t *testing.T) {
	// The double-y scheme: fully adaptive minimal routing on a 2D mesh
	// with two virtual channels on the y links only, and an acyclic
	// virtual-channel dependency graph.
	for _, size := range [][2]int{{4, 4}, {8, 8}, {5, 3}} {
		m := topology.NewMesh2D(size[0], size[1])
		g := FromRouting(DoubleY(m))
		if cyc := g.FindVCCycle(); cyc != nil {
			t.Errorf("double-y on %s: dependency cycle %v", m.Name(), cyc)
		}
	}
}

func TestDoubleYIsFullyAdaptive(t *testing.T) {
	// Every productive physical direction must be offered at every hop —
	// that is what "fully adaptive" means.
	m := topology.NewMesh2D(6, 6)
	a := DoubleY(m)
	for src := topology.NodeID(0); int(src) < m.Nodes(); src++ {
		for dst := topology.NodeID(0); int(dst) < m.Nodes(); dst++ {
			if src == dst {
				continue
			}
			productive := m.MinimalDirections(src, dst)
			cands := a.Candidates(src, dst, topology.Invalid, 0)
			if len(cands) != len(productive) {
				t.Fatalf("%d->%d: %d candidates for %d productive directions", src, dst, len(cands), len(productive))
			}
			for i, d := range productive {
				if cands[i].Dir != d {
					t.Fatalf("%d->%d: candidate %v, want direction %v", src, dst, cands[i], d)
				}
			}
		}
	}
}

func TestDoubleYVCDiscipline(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	a := DoubleY(m)
	// West-pending packets use y1 (vc 0).
	src := m.ID(topology.Coord{5, 5})
	cands := a.Candidates(src, m.ID(topology.Coord{2, 7}), topology.Invalid, 0)
	for _, c := range cands {
		if c.Dir.Dim() == 1 && c.VC != 0 {
			t.Errorf("west-pending y candidate on vc %d", c.VC)
		}
		if c.Dir == topology.East {
			t.Error("west-pending packet offered east")
		}
	}
	// Non-west-pending packets use y2 (vc 1).
	cands = a.Candidates(src, m.ID(topology.Coord{7, 2}), topology.Invalid, 0)
	for _, c := range cands {
		if c.Dir.Dim() == 1 && c.VC != 1 {
			t.Errorf("eastbound y candidate on vc %d", c.VC)
		}
	}
	if a.VCs(topology.North) != 2 || a.VCs(topology.East) != 1 {
		t.Error("VC counts wrong")
	}
}

func TestDoubleYPanicsOn3D(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	DoubleY(topology.NewMesh(3, 3, 3))
}

func TestDatelineDORDeadlockFree(t *testing.T) {
	// Dally-Seitz: minimal DOR on k-ary n-cubes becomes deadlock free
	// with the two-virtual-channel dateline split, including k > 4 where
	// Section 4.2 proves it impossible without extra channels.
	for _, spec := range [][2]int{{4, 2}, {5, 2}, {8, 2}, {3, 3}, {6, 1}} {
		tr := topology.NewKaryNCube(spec[0], spec[1])
		g := FromRouting(DatelineDOR(tr))
		if cyc := g.FindVCCycle(); cyc != nil {
			t.Errorf("dateline-dor on %s: dependency cycle %v", tr.Name(), cyc)
		}
	}
}

func TestDatelineDORIsMinimal(t *testing.T) {
	tr := topology.NewKaryNCube(8, 2)
	a := DatelineDOR(tr)
	for src := topology.NodeID(0); int(src) < tr.Nodes(); src++ {
		for dst := topology.NodeID(0); int(dst) < tr.Nodes(); dst++ {
			if src == dst {
				continue
			}
			// Walk the deterministic route; it must use exactly
			// Distance hops.
			cur := src
			hops := 0
			inDir, inVC := topology.Invalid, 0
			for cur != dst {
				cands := a.Candidates(cur, dst, inDir, inVC)
				if len(cands) != 1 {
					t.Fatalf("%d->%d at %d: %d candidates, want 1", src, dst, cur, len(cands))
				}
				nb, ok := tr.Neighbor(cur, cands[0].Dir)
				if !ok {
					t.Fatalf("missing channel %v", cands[0])
				}
				inDir, inVC = cands[0].Dir, cands[0].VC
				cur = nb
				hops++
				if hops > tr.Nodes() {
					t.Fatalf("%d->%d: runaway route", src, dst)
				}
			}
			if want := tr.Distance(src, dst); hops != want {
				t.Fatalf("%d->%d: %d hops, want %d (minimal)", src, dst, hops, want)
			}
		}
	}
}

func TestNaiveTorusDORHasCycle(t *testing.T) {
	// The negative control: without the dateline split the ring
	// dependency cycles survive.
	tr := topology.NewKaryNCube(5, 2)
	g := FromRouting(NaiveTorusDOR(tr))
	if g.DeadlockFree() {
		t.Error("naive torus DOR verified deadlock free; the rings should cycle")
	}
}

func TestLiftMatchesBaseCDGVerdicts(t *testing.T) {
	// Lifting a physical algorithm to one virtual channel must preserve
	// the deadlock verdicts of the base analysis.
	m := topology.NewMesh2D(4, 4)
	for name, wantFree := range map[string]bool{
		"xy":             true,
		"west-first":     true,
		"negative-first": true,
		"fully-adaptive": false,
	} {
		base, err := routing.New(name, m)
		if err != nil {
			t.Fatal(err)
		}
		g := FromRouting(Lift(base))
		if got := g.DeadlockFree(); got != wantFree {
			t.Errorf("%s lifted: deadlock free = %v, want %v", name, got, wantFree)
		}
	}
}

func TestVCCDGStats(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	g := FromRouting(DoubleY(m))
	// 2D 4x4 mesh: 48 x-channels with 1 VC... x channels: 2*(3*4) = 24;
	// y channels: 24 physical with 2 VCs = 48. Total 72 virtual channels.
	if g.Vertices() != 72 {
		t.Errorf("Vertices = %d, want 72", g.Vertices())
	}
	if g.Edges() == 0 {
		t.Error("no edges")
	}
}

func TestVCNew(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	tr := topology.NewKaryNCube(4, 2)
	if _, err := New("double-y", m); err != nil {
		t.Error(err)
	}
	if _, err := New("double-y", tr); err == nil {
		t.Error("double-y on torus accepted")
	}
	if _, err := New("dateline-dor", tr); err != nil {
		t.Error(err)
	}
	if _, err := New("dateline-dor", m); err == nil {
		t.Error("dateline-dor on mesh accepted")
	}
	if _, err := New("naive-torus-dor", tr); err != nil {
		t.Error(err)
	}
	if _, err := New("naive-torus-dor", m); err == nil {
		t.Error("naive-torus-dor on mesh accepted")
	}
	// Physical algorithms are lifted transparently.
	if a, err := New("west-first", m); err != nil || a.Name() != "west-first" {
		t.Errorf("lift via New failed: %v", err)
	}
	if _, err := New("bogus", m); err == nil {
		t.Error("bogus accepted")
	}
}

func TestMaxVCs(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	if MaxVCs(DoubleY(m)) != 2 {
		t.Error("double-y MaxVCs != 2")
	}
	base, _ := routing.New("xy", m)
	if MaxVCs(Lift(base)) != 1 {
		t.Error("lifted MaxVCs != 1")
	}
}

func TestOutString(t *testing.T) {
	o := Out{topology.North, 1}
	if o.String() != "north(+y)/vc1" {
		t.Errorf("String = %q", o)
	}
}

func TestCCCAscendingDeadlockFree(t *testing.T) {
	// The turn model applied to the third Section 7 topology: the
	// ascending CCC route with dateline-classed ring channels has an
	// acyclic virtual-channel dependency graph.
	for _, n := range []int{3, 4, 5} {
		c := topology.NewCCC(n)
		g := FromRouting(NewCCCAscending(c))
		if cyc := g.FindVCCycle(); cyc != nil {
			t.Errorf("ccc-ascending on %s: dependency cycle %v", c.Name(), cyc)
		}
	}
}

func TestNaiveCCCHasCycle(t *testing.T) {
	c := topology.NewCCC(3)
	g := FromRouting(NewNaiveCCC(c))
	if g.DeadlockFree() {
		t.Error("naive CCC routing verified deadlock free; ring cycles should survive")
	}
}

func TestCCCAscendingRoutesTerminate(t *testing.T) {
	c := topology.NewCCC(5)
	a := NewCCCAscending(c)
	n := c.Order()
	for src := topology.NodeID(0); int(src) < c.Nodes(); src += 3 {
		for dst := topology.NodeID(0); int(dst) < c.Nodes(); dst += 7 {
			if src == dst {
				continue
			}
			cur := src
			inDir, inVC := topology.Invalid, 0
			hops := 0
			for cur != dst {
				outs := a.Candidates(cur, dst, inDir, inVC)
				if len(outs) != 1 {
					t.Fatalf("%d->%d at %d: %d candidates, want 1", src, dst, cur, len(outs))
				}
				nb, ok := c.Neighbor(cur, outs[0].Dir)
				if !ok {
					t.Fatalf("%d->%d: candidate %v has no channel at %d", src, dst, outs[0], cur)
				}
				if outs[0].VC >= a.VCs(outs[0].Dir) {
					t.Fatalf("%d->%d: vc %d out of range for %v", src, dst, outs[0].VC, outs[0].Dir)
				}
				inDir, inVC = outs[0].Dir, outs[0].VC
				cur = nb
				hops++
				if hops > 2*n+n/2+1 {
					t.Fatalf("%d->%d exceeded the 2n+n/2 hop bound", src, dst)
				}
			}
			if hops < c.Distance(src, dst) {
				t.Fatalf("%d->%d: %d hops beats the BFS distance %d", src, dst, hops, c.Distance(src, dst))
			}
		}
	}
}

func TestCCCClassNeverDecreases(t *testing.T) {
	// The deadlock-freedom argument: the (channel set, class) rank is
	// monotone along every route. Walk all routes on CCC(4) and check.
	c := topology.NewCCC(4)
	a := NewCCCAscending(c)
	rank := func(d topology.Direction, vcIdx int) int {
		switch {
		case d.Dim() == 0: // cube: A0, A1
			return vcIdx
		case d == topology.Dir(1, true): // ring+: A0 A1 B+0 B+1
			return vcIdx
		default: // ring-: B-0 B-1 rank above phase A
			return 2 + vcIdx
		}
	}
	for src := topology.NodeID(0); int(src) < c.Nodes(); src += 2 {
		for dst := topology.NodeID(0); int(dst) < c.Nodes(); dst += 3 {
			if src == dst {
				continue
			}
			cur := src
			inDir, inVC := topology.Invalid, 0
			prev := -1
			for cur != dst {
				out := a.Candidates(cur, dst, inDir, inVC)[0]
				r := rank(out.Dir, out.VC)
				if r < prev {
					t.Fatalf("%d->%d: class rank decreased %d -> %d at node %d (%v)", src, dst, prev, r, cur, out)
				}
				prev = r
				nb, _ := c.Neighbor(cur, out.Dir)
				inDir, inVC = out.Dir, out.VC
				cur = nb
			}
		}
	}
}

func TestVCNames(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	tr := topology.NewKaryNCube(4, 2)
	c := topology.NewCCC(3)
	names := map[string]Algorithm{
		"double-y":        DoubleY(m),
		"dateline-dor":    DatelineDOR(tr),
		"naive-torus-dor": NaiveTorusDOR(tr),
		"ccc-ascending":   NewCCCAscending(c),
		"ccc-naive":       NewNaiveCCC(c),
	}
	for want, a := range names {
		if a.Name() != want {
			t.Errorf("Name() = %q, want %q", a.Name(), want)
		}
	}
	if (Channel{Channel: topology.Channel{From: 1, To: 2, Dir: topology.East}, VC: 1}).String() != "1-east(+x)/vc1->2" {
		t.Error("vc.Channel String wrong")
	}
	// Registry covers the CCC algorithms and rejects mismatches.
	if _, err := New("ccc-ascending", c); err != nil {
		t.Error(err)
	}
	if _, err := New("ccc-ascending", m); err == nil {
		t.Error("ccc-ascending on mesh accepted")
	}
	if _, err := New("ccc-naive", c); err != nil {
		t.Error(err)
	}
	if _, err := New("ccc-naive", m); err == nil {
		t.Error("ccc-naive on mesh accepted")
	}
}
