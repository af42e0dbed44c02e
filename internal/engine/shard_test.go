package engine_test

// Unit tests for the domain-decomposition primitives: the worker pool's
// barrier and shutdown semantics, the domain partition of the node space,
// the emitter merge used at phase barriers, and the sharded injection
// phase's ordering contract. The end-to-end bit-identity of sharded runs is
// shard_diff_test.go's job.

import (
	"reflect"
	"testing"

	"turnmodel/internal/engine"
	"turnmodel/internal/topology"
)

func TestPoolRunBarrier(t *testing.T) {
	p := engine.NewPool(4)
	defer p.Close()
	hits := make([]int, 4)
	for round := 0; round < 3; round++ {
		// Disjoint writes per domain; Run's barrier publishes them.
		p.Run(func(d int) { hits[d]++ })
	}
	for d, n := range hits {
		if n != 3 {
			t.Errorf("domain %d ran %d times, want 3", d, n)
		}
	}
}

func TestPoolSingleWorker(t *testing.T) {
	// A one-worker pool runs everything on the calling goroutine.
	p := engine.NewPool(1)
	defer p.Close()
	ran := false
	p.Run(func(d int) {
		if d != 0 {
			t.Errorf("domain %d on a single-worker pool", d)
		}
		ran = true
	})
	if !ran {
		t.Fatal("task did not run")
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := engine.NewPool(3)
	p.Close()
	p.Close() // second Close must be a no-op, not a double close panic
}

func TestShardPartition(t *testing.T) {
	mesh := topology.NewMesh(6, 6) // 36 nodes
	for _, shards := range []int{1, 2, 3, 4, 5, 7, 36} {
		c := engine.NewCore(engine.Config{Topo: mesh, Shards: shards})
		if got := c.ShardCount(); got != shards {
			t.Fatalf("shards=%d: ShardCount() = %d", shards, got)
		}
		if shards > 1 {
			// The domains must tile [0, nodes) contiguously, in ascending
			// order, each non-empty and balanced to within one node.
			next := int32(0)
			min, max := 37, 0
			for d := 0; d < shards; d++ {
				lo, hi := c.ShardRange(d)
				if lo != next || hi <= lo {
					t.Fatalf("shards=%d: domain %d is [%d, %d), want contiguous from %d", shards, d, lo, hi, next)
				}
				n := int(hi - lo)
				if n < min {
					min = n
				}
				if n > max {
					max = n
				}
				next = hi
			}
			if next != 36 {
				t.Fatalf("shards=%d: domains end at %d, want 36", shards, next)
			}
			if max-min > 1 {
				t.Errorf("shards=%d: domain sizes range %d..%d, want balanced within 1", shards, min, max)
			}
		}
		c.Close()
		if c.ShardCount() != 1 {
			t.Errorf("shards=%d: ShardCount() after Close = %d, want 1", shards, c.ShardCount())
		}
		c.Close() // idempotent
	}
}

func TestShardCountClamped(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {-3, 1}, {1, 1}, {16, 16}, {100, 16},
	} {
		c := engine.NewCore(engine.Config{Topo: mesh, Shards: tc.in})
		if got := c.ShardCount(); got != tc.want {
			t.Errorf("Shards=%d: ShardCount() = %d, want %d", tc.in, got, tc.want)
		}
		c.Close()
	}
}

func TestEmitterAbsorbMergesInOrder(t *testing.T) {
	p := &recProbe{}
	main := engine.NewEmitter(p)
	dom := engine.NewEmitter(p)

	main.Inject(0, 1, 2, 3)
	dom.Blocked(0, 4)
	dom.Drop(0, 1, 2, 3, 0)
	main.Absorb(&dom)
	main.Deliver(0, 1, 2, 3, 4, 5, 6)
	main.Tick(0)

	// Absorbed events land after what the main emitter already held and
	// before what it records afterwards — the domain-order merge.
	want := []string{"inject", "blocked", "drop", "deliver", "tick"}
	if !reflect.DeepEqual(p.calls, want) {
		t.Errorf("flush order %v, want %v", p.calls, want)
	}

	// The source was cleared, not copied: a second absorb adds nothing.
	p.calls = nil
	main.Absorb(&dom)
	main.Tick(1)
	if !reflect.DeepEqual(p.calls, []string{"tick"}) {
		t.Errorf("re-absorb replayed stale events: %v", p.calls)
	}
}

func TestEmitterAbsorbDisabledNoAllocs(t *testing.T) {
	main := engine.NewEmitter(nil)
	dom := engine.NewEmitter(nil)
	n := testing.AllocsPerRun(100, func() {
		dom.Inject(0, 1, 2, 3) // no-op: nil probe
		main.Absorb(&dom)
	})
	if n != 0 {
		t.Errorf("disabled absorb allocates %.1f allocs/op", n)
	}
}

// TestShardedInjectionOrder pins the injection worklist's sharded contract:
// the placement hook is called on the owning domain for every node, and the
// per-domain placements concatenated in domain order equal the ascending
// node order of the serial phase.
func TestShardedInjectionOrder(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	const shards = 3
	c := engine.NewCore(engine.Config{Topo: mesh, Shards: shards})
	defer c.Close()
	c.Bind()
	placed := make([][]topology.NodeID, shards)
	c.InjFree = func(n topology.NodeID) bool { return true }
	c.InjPlace = func(n topology.NodeID, p *engine.Packet) {
		t.Errorf("serial InjPlace called for node %d on a sharded core", n)
	}
	c.InjPlaceShard = func(d int, n topology.NodeID, p *engine.Packet) {
		lo, hi := c.ShardRange(d)
		if int32(n) < lo || int32(n) >= hi {
			t.Errorf("node %d placed by domain %d [%d, %d)", n, d, lo, hi)
		}
		placed[d] = append(placed[d], n)
	}
	c.Reachable = func(src, dst topology.NodeID) bool { return true }
	c.OnEpochChange = func() {}

	for _, src := range []topology.NodeID{9, 2, 13, 2, 5, 0, 15, 7} {
		c.Enqueue(src, (src+1)%16, 4)
	}
	if !c.InjectPhase() {
		t.Fatal("injection made no progress")
	}
	var got []topology.NodeID
	for d := 0; d < shards; d++ {
		got = append(got, placed[d]...)
	}
	want := []topology.NodeID{0, 2, 5, 7, 9, 13, 15}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sharded injection order %v, want %v", got, want)
	}
	// Node 2's second packet stays queued behind the first.
	if c.Backlog() != 1 {
		t.Errorf("backlog %d after injection, want 1", c.Backlog())
	}
}
