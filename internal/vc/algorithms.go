package vc

import (
	"fmt"

	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
)

// DoubleY is the minimal FULLY adaptive algorithm for 2D meshes obtained
// by doubling the virtual channels of the y links, in the spirit of the
// companion paper [18] (maximally fully adaptive routing in 2D meshes).
//
// The y physical channels carry two virtual channels, y1 (vc 0) and y2
// (vc 1); the x channels carry one. A packet that still has to travel
// west uses west channels and y1 channels, all fully adaptively; once no
// westward hops remain it uses east channels and y2 channels. Every
// productive physical direction is therefore available at every hop —
// full adaptiveness — yet the dependency graph is acyclic: the
// west-pending class {W, y1} has no eastward channel to close a plane
// cycle, the east class {E, y2} has no westward one, and transitions only
// go from the first class to the second (a packet never becomes
// west-pending again under minimal routing).
func DoubleY(m *topology.Mesh) Algorithm {
	if m.Dims() != 2 {
		panic("vc: double-y requires a 2D mesh")
	}
	return doubleY{m}
}

type doubleY struct{ m *topology.Mesh }

func (a doubleY) Name() string                { return "double-y" }
func (a doubleY) Topology() topology.Topology { return a.m }

func (a doubleY) VCs(d topology.Direction) int {
	if d.Dim() == 1 {
		return 2
	}
	return 1
}

func (a doubleY) Candidates(current, dest topology.NodeID, _ topology.Direction, _ int) []Out {
	cc := a.m.Coord(current)
	dc := a.m.Coord(dest)
	westPending := dc[0] < cc[0]
	yvc := 1
	if westPending {
		yvc = 0
	}
	var out []Out
	switch {
	case westPending:
		out = append(out, Out{topology.West, 0})
	case dc[0] > cc[0]:
		out = append(out, Out{topology.East, 0})
	}
	switch {
	case dc[1] < cc[1]:
		out = append(out, Out{topology.South, yvc})
	case dc[1] > cc[1]:
		out = append(out, Out{topology.North, yvc})
	}
	return out
}

// AppendCandidates implements CandidateAppender (per-coordinate reads, no
// Coord allocation).
func (a doubleY) AppendCandidates(dst []Out, scratch []topology.Direction, current, dest topology.NodeID, _ topology.Direction, _ int) ([]Out, []topology.Direction) {
	cx, cy := a.m.CoordAt(current, 0), a.m.CoordAt(current, 1)
	dx, dy := a.m.CoordAt(dest, 0), a.m.CoordAt(dest, 1)
	westPending := dx < cx
	yvc := 1
	if westPending {
		yvc = 0
	}
	switch {
	case westPending:
		dst = append(dst, Out{topology.West, 0})
	case dx > cx:
		dst = append(dst, Out{topology.East, 0})
	}
	switch {
	case dy < cy:
		dst = append(dst, Out{topology.South, yvc})
	case dy > cy:
		dst = append(dst, Out{topology.North, yvc})
	}
	return dst, scratch
}

// DatelineDOR is minimal dimension-order routing on a k-ary n-cube made
// deadlock free with the Dally–Seitz dateline scheme: every physical
// channel carries two virtual channels, and within each ring a packet uses
// vc0 until its route passes the dateline (the wraparound edge) and vc1
// afterwards. Section 4.2 notes minimal deadlock-free routing on tori with
// k > 4 is impossible without extra channels; this is the classic way to
// buy it with one extra virtual channel.
//
// Ties (k even, destination exactly halfway) route in the positive
// direction.
func DatelineDOR(t *topology.Torus) Algorithm {
	return datelineDOR{t}
}

type datelineDOR struct{ t *topology.Torus }

func (a datelineDOR) Name() string                { return "dateline-dor" }
func (a datelineDOR) Topology() topology.Topology { return a.t }
func (a datelineDOR) VCs(topology.Direction) int  { return 2 }

func (a datelineDOR) Candidates(current, dest topology.NodeID, _ topology.Direction, _ int) []Out {
	cc := a.t.Coord(current)
	dc := a.t.Coord(dest)
	for dim := 0; dim < a.t.Dims(); dim++ {
		cur, want := cc[dim], dc[dim]
		if cur == want {
			continue
		}
		k := a.t.Size(dim)
		up := ((want-cur)%k + k) % k
		down := k - up
		positive := up <= down
		// The dateline of every ring lies on its wraparound edge. A
		// packet travelling in the positive direction crosses it at
		// node k-1; until then, a route that still must wrap sees
		// cur > want. Symmetrically for the negative direction.
		vc := 0
		if positive && cur < want {
			vc = 1
		}
		if !positive && cur > want {
			vc = 1
		}
		return []Out{{topology.Dir(dim, positive), vc}}
	}
	return nil
}

// AppendCandidates implements CandidateAppender.
func (a datelineDOR) AppendCandidates(dst []Out, scratch []topology.Direction, current, dest topology.NodeID, _ topology.Direction, _ int) ([]Out, []topology.Direction) {
	for dim := 0; dim < a.t.Dims(); dim++ {
		cur, want := a.t.CoordAt(current, dim), a.t.CoordAt(dest, dim)
		if cur == want {
			continue
		}
		k := a.t.Size(dim)
		up := ((want-cur)%k + k) % k
		down := k - up
		positive := up <= down
		vc := 0
		if positive && cur < want {
			vc = 1
		}
		if !positive && cur > want {
			vc = 1
		}
		return append(dst, Out{topology.Dir(dim, positive), vc}), scratch
	}
	return dst, scratch
}

// Lift adapts a physical-channel routing.Algorithm into a single-virtual-
// channel vc.Algorithm, so the two simulators and verifiers can be
// cross-checked on identical routing relations.
func Lift(a routing.Algorithm) Algorithm {
	ra, _ := a.(routing.CandidateAppender)
	return lifted{a, ra}
}

type lifted struct {
	a routing.Algorithm
	// ra caches the underlying CandidateAppender (nil when unsupported)
	// so AppendCandidates skips the type assertion per hop.
	ra routing.CandidateAppender
}

func (l lifted) Name() string                { return l.a.Name() }
func (l lifted) Topology() topology.Topology { return l.a.Topology() }
func (l lifted) VCs(topology.Direction) int  { return 1 }

func (l lifted) Candidates(current, dest topology.NodeID, inDir topology.Direction, _ int) []Out {
	dirs := l.a.Candidates(current, dest, inDir, routing.ArrivalWrap(l.a.Topology(), current, inDir))
	out := make([]Out, len(dirs))
	for i, d := range dirs {
		out[i] = Out{d, 0}
	}
	return out
}

// AppendCandidates implements CandidateAppender, delegating to the
// underlying algorithm's appender when it has one.
func (l lifted) AppendCandidates(dst []Out, scratch []topology.Direction, current, dest topology.NodeID, inDir topology.Direction, _ int) ([]Out, []topology.Direction) {
	inWrap := routing.ArrivalWrap(l.a.Topology(), current, inDir)
	var dirs []topology.Direction
	if l.ra != nil {
		scratch = l.ra.AppendCandidates(scratch[:0], current, dest, inDir, inWrap)
		dirs = scratch
	} else {
		dirs = l.a.Candidates(current, dest, inDir, inWrap)
	}
	for _, d := range dirs {
		dst = append(dst, Out{d, 0})
	}
	return dst, scratch
}

// NaiveTorusDOR is minimal dimension-order torus routing WITHOUT the
// dateline split: a single virtual channel per physical channel. It is
// the §4.2 impossibility made concrete — its ring dependency cycles make
// it deadlock prone — and exists as the negative control for the
// dateline scheme.
func NaiveTorusDOR(t *topology.Torus) Algorithm {
	return naiveTorus{t}
}

type naiveTorus struct{ t *topology.Torus }

func (a naiveTorus) Name() string                { return "naive-torus-dor" }
func (a naiveTorus) Topology() topology.Topology { return a.t }
func (a naiveTorus) VCs(topology.Direction) int  { return 1 }

func (a naiveTorus) Candidates(current, dest topology.NodeID, _ topology.Direction, _ int) []Out {
	cc := a.t.Coord(current)
	dc := a.t.Coord(dest)
	for dim := 0; dim < a.t.Dims(); dim++ {
		cur, want := cc[dim], dc[dim]
		if cur == want {
			continue
		}
		k := a.t.Size(dim)
		up := ((want-cur)%k + k) % k
		positive := up <= k-up
		return []Out{{topology.Dir(dim, positive), 0}}
	}
	return nil
}

// AppendCandidates implements CandidateAppender.
func (a naiveTorus) AppendCandidates(dst []Out, scratch []topology.Direction, current, dest topology.NodeID, _ topology.Direction, _ int) ([]Out, []topology.Direction) {
	for dim := 0; dim < a.t.Dims(); dim++ {
		cur, want := a.t.CoordAt(current, dim), a.t.CoordAt(dest, dim)
		if cur == want {
			continue
		}
		k := a.t.Size(dim)
		up := ((want-cur)%k + k) % k
		positive := up <= k-up
		return append(dst, Out{topology.Dir(dim, positive), 0}), scratch
	}
	return dst, scratch
}

// New constructs a named virtual-channel algorithm.
func New(name string, topo topology.Topology) (Algorithm, error) {
	switch name {
	case "double-y":
		m, ok := topo.(*topology.Mesh)
		if !ok || m.Dims() != 2 {
			return nil, fmt.Errorf("vc: double-y requires a 2D mesh, have %s", topo.Name())
		}
		return DoubleY(m), nil
	case "dateline-dor":
		t, ok := topo.(*topology.Torus)
		if !ok {
			return nil, fmt.Errorf("vc: dateline-dor requires a torus, have %s", topo.Name())
		}
		return DatelineDOR(t), nil
	case "naive-torus-dor":
		t, ok := topo.(*topology.Torus)
		if !ok {
			return nil, fmt.Errorf("vc: naive-torus-dor requires a torus, have %s", topo.Name())
		}
		return NaiveTorusDOR(t), nil
	case "ccc-ascending":
		c, ok := topo.(*topology.CCC)
		if !ok {
			return nil, fmt.Errorf("vc: ccc-ascending requires a CCC, have %s", topo.Name())
		}
		return NewCCCAscending(c), nil
	case "ccc-naive":
		c, ok := topo.(*topology.CCC)
		if !ok {
			return nil, fmt.Errorf("vc: ccc-naive requires a CCC, have %s", topo.Name())
		}
		return NewNaiveCCC(c), nil
	}
	if alg, err := routing.New(name, topo); err == nil {
		return Lift(alg), nil
	}
	return nil, fmt.Errorf("vc: unknown algorithm %q", name)
}
