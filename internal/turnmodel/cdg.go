package turnmodel

import (
	"fmt"

	"turnmodel/internal/topology"
)

// CandidateFunc is the routing relation used to build channel dependency
// graphs: it lists the output directions a header at node current,
// destined for dest, may take after arriving in direction in
// (topology.Invalid denotes the injection port).
type CandidateFunc func(current, dest topology.NodeID, in topology.Direction) []topology.Direction

// VCCandidateFunc is the routing relation over virtual channels: it calls
// emit, in order, with every (direction, virtual channel) output a header
// at node current, destined for dest, may take after arriving on virtual
// channel inVC of direction in (topology.Invalid and 0 at the injection
// port).
type VCCandidateFunc func(current, dest topology.NodeID, in topology.Direction, inVC int, emit func(d topology.Direction, vc int))

// VCChannel is one virtual channel of a unidirectional network channel: a
// vertex of the dependency graph. VC is 0 on a network without virtual
// channels, where every channel is its own single virtual channel.
type VCChannel struct {
	topology.Channel
	VC int
}

func (c VCChannel) String() string {
	return fmt.Sprintf("%d-%v/vc%d->%d", c.From, c.Dir, c.VC, c.To)
}

// CDG is a channel dependency graph. Vertices are the virtual channels of
// the unidirectional network channels — exactly the channels themselves
// when there is one virtual channel per channel, as in the turn model
// proper; Section 4.2's virtual channels only multiply the vertices. There
// is an edge from v1 to v2 when a packet holding v1 may wait for v2. Dally
// and Seitz showed a wormhole routing algorithm is deadlock free iff its
// channel dependency graph is acyclic; the turn model's proofs exhibit a
// channel numbering witnessing exactly that.
type CDG struct {
	topo  topology.Topology
	maxVC int
	chans []VCChannel
	// index maps the dense key (from*2n+dir)*maxVC+vc to a vertex, -1 if
	// the virtual channel does not exist.
	index []int32
	adj   [][]int32
}

// newCDG lays out the vertices: every channel of topo in its order, each
// followed by its virtual channels in increasing order. vcs reports the
// virtual channel count per direction; nil means one.
func newCDG(topo topology.Topology, vcs func(topology.Direction) int) *CDG {
	if vcs == nil {
		vcs = func(topology.Direction) int { return 1 }
	}
	g := &CDG{topo: topo, maxVC: 1}
	for _, d := range topology.Directions(topo.Dims()) {
		g.maxVC = max(g.maxVC, vcs(d))
	}
	g.index = make([]int32, topo.Nodes()*2*topo.Dims()*g.maxVC)
	for i := range g.index {
		g.index[i] = -1
	}
	for _, ch := range topo.Channels() {
		for vc := 0; vc < vcs(ch.Dir); vc++ {
			g.index[g.key(ch.From, ch.Dir, vc)] = int32(len(g.chans))
			g.chans = append(g.chans, VCChannel{ch, vc})
		}
	}
	g.adj = make([][]int32, len(g.chans))
	return g
}

// Channel returns the physical channel of a vertex.
func (g *CDG) Channel(v int) topology.Channel { return g.chans[v].Channel }

// Vertices reports the number of (virtual) channels.
func (g *CDG) Vertices() int { return len(g.chans) }

// Edges reports the number of dependencies.
func (g *CDG) Edges() int {
	n := 0
	for _, a := range g.adj {
		n += len(a)
	}
	return n
}

func (g *CDG) key(node topology.NodeID, d topology.Direction, vc int) int {
	return (int(node)*2*g.topo.Dims()+int(d))*g.maxVC + vc
}

// vertex returns the vertex of virtual channel vc on the channel leaving
// node in direction d, or -1 if there is none.
func (g *CDG) vertex(node topology.NodeID, d topology.Direction, vc int) int32 {
	if vc < 0 || vc >= g.maxVC {
		return -1
	}
	return g.index[g.key(node, d, vc)]
}

// FromTurns builds the dependency graph induced by a turn predicate:
// channel (A->B, d1) depends on channel (B->C, d2) when d1 == d2
// (continuing straight is not a turn and is always permitted) or when the
// predicate allows the turn d1->d2. This models a nonminimal routing
// algorithm that may use every allowed turn anywhere, which is exactly the
// worst case Step 4 of the model must secure.
func FromTurns(topo topology.Topology, allowed func(Turn) bool) *CDG {
	return FromTurnsAt(topo, func(_ topology.NodeID, t Turn) bool { return allowed(t) })
}

// FromTurnsAt is FromTurns for location-dependent turn rules: the
// predicate also receives the node at which the turn is taken. Successors
// of the turn model — notably the odd-even model, whose prohibitions
// depend on column parity — need this generality.
func FromTurnsAt(topo topology.Topology, allowed func(at topology.NodeID, t Turn) bool) *CDG {
	g := newCDG(topo, nil)
	seen := make(map[int64]bool)
	for v, ch := range g.chans {
		for _, d2 := range topology.Directions(topo.Dims()) {
			w := g.vertex(ch.To, d2, 0)
			if w < 0 {
				continue
			}
			if ch.Dir != d2 && !allowed(ch.To, Turn{ch.Dir, d2}) {
				continue
			}
			g.addEdge(seen, int32(v), w)
		}
	}
	return g
}

// FromRouting builds the exact dependency graph of a routing relation: for
// every destination it traverses the channels a packet can actually occupy
// and records which channels the packet may wait for next. This is the
// graph whose acyclicity Theorems 2-5 establish for the specific
// algorithms.
func FromRouting(topo topology.Topology, candidates CandidateFunc) *CDG {
	return FromRoutingFaulted(topo, candidates, nil)
}

// FromRoutingFaulted is FromRoutingVC for a relation without virtual
// channels.
func FromRoutingFaulted(topo topology.Topology, candidates CandidateFunc, faulted func(from topology.NodeID, dir topology.Direction) bool) *CDG {
	return FromRoutingVC(topo, nil, func(current, dest topology.NodeID, in topology.Direction, _ int, emit func(topology.Direction, int)) {
		for _, d := range candidates(current, dest, in) {
			emit(d, 0)
		}
	}, faulted)
}

// FromRoutingVC builds the exact dependency graph of a routing relation
// over virtual channels, on a faulted configuration: vcs reports the
// virtual channel count per direction (nil: one), and channels for which
// faulted returns true are excluded from the traversal. A broken channel is
// never allocated, so no packet ever holds one — a packet may still *wait*
// on one (when masking leaves it no alternative, until recovery aborts it),
// but a channel that is never held cannot take part in a hold-and-wait
// cycle, so such dependencies are irrelevant to deadlock and the faulted
// channels — every virtual channel on them — simply leave the graph. A nil
// faulted predicate gives the healthy graph.
//
// Pass the relation of a routing.FaultAware (or vc.FaultAware) wrapper to
// check that a fault-aware masking/misroute configuration keeps an
// algorithm deadlock free on a specific fault set.
func FromRoutingVC(topo topology.Topology, vcs func(topology.Direction) int, candidates VCCandidateFunc, faulted func(from topology.NodeID, dir topology.Direction) bool) *CDG {
	g := newCDG(topo, vcs)
	seen := make(map[int64]bool)
	visited := make([]bool, len(g.chans))
	queue := make([]int32, 0, len(g.chans))
	// emit records one output of the relation at node: a dependency from
	// the held vertex from (none while seeding injections, from < 0) and a
	// vertex to visit.
	var node topology.NodeID
	from := int32(-1)
	emit := func(d topology.Direction, vc int) {
		w := g.vertex(node, d, vc)
		if w < 0 {
			panic(fmt.Sprintf("turnmodel: routing proposed missing channel %v/vc%d from node %d", d, vc, node))
		}
		if faulted != nil && faulted(node, d) {
			return
		}
		if from >= 0 {
			g.addEdge(seen, from, w)
		}
		if !visited[w] {
			visited[w] = true
			queue = append(queue, w)
		}
	}
	for dst := topology.NodeID(0); int(dst) < topo.Nodes(); dst++ {
		clear(visited)
		queue = queue[:0]
		// Seed with every channel a freshly injected packet may take.
		from = -1
		for src := topology.NodeID(0); int(src) < topo.Nodes(); src++ {
			if src != dst {
				node = src
				candidates(src, dst, topology.Invalid, 0, emit)
			}
		}
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ch := g.chans[v]
			if ch.To == dst {
				continue
			}
			node, from = ch.To, v
			candidates(ch.To, dst, ch.Dir, ch.VC, emit)
		}
	}
	return g
}

func (g *CDG) addEdge(seen map[int64]bool, v, w int32) {
	key := int64(v)*int64(len(g.chans)) + int64(w)
	if seen[key] {
		return
	}
	seen[key] = true
	g.adj[v] = append(g.adj[v], w)
}

// FindCycle returns the channels of one dependency cycle, or nil if the
// graph is acyclic (i.e. the routing is deadlock free).
func (g *CDG) FindCycle() []topology.Channel {
	var cyc []topology.Channel
	for _, c := range g.FindVCCycle() {
		cyc = append(cyc, c.Channel)
	}
	return cyc
}

// FindVCCycle is FindCycle naming virtual channels.
func (g *CDG) FindVCCycle() []VCChannel {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, len(g.chans))
	parent := make([]int32, len(g.chans))
	// Iterative DFS with an explicit stack of (vertex, next-edge) frames.
	type frame struct {
		v    int32
		next int
	}
	for start := range g.chans {
		if color[start] != white {
			continue
		}
		stack := []frame{{int32(start), 0}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(g.adj[f.v]) {
				w := g.adj[f.v][f.next]
				f.next++
				switch color[w] {
				case white:
					color[w] = gray
					parent[w] = f.v
					stack = append(stack, frame{w, 0})
				case gray:
					// Found a cycle: w .. f.v -> w.
					var cyc []VCChannel
					for v := f.v; ; v = parent[v] {
						cyc = append(cyc, g.chans[v])
						if v == w {
							break
						}
					}
					// Reverse into traversal order.
					for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					return cyc
				}
			} else {
				color[f.v] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// DeadlockFree reports whether the dependency graph is acyclic.
func (g *CDG) DeadlockFree() bool { return g.FindVCCycle() == nil }
