package engine

import (
	"runtime"
	"sync"

	"turnmodel/internal/metrics"
	"turnmodel/internal/topology"
)

// Spatial domain decomposition: a Core configured with Config.Shards > 1
// partitions its node space into contiguous, balanced node-ID ranges
// ("domains"), each stepped by one worker of a persistent Pool. The
// decomposition is designed around one invariant, which docs/performance.md
// argues in full: a sharded step must be bit-identical to the serial step.
//
// Three properties make that possible:
//
//   - Domains are contiguous ascending node ranges, so concatenating
//     per-domain results in domain order reproduces exactly the ascending
//     node (and sorted-request) order the serial loops visit.
//   - Every mutation a domain performs during a parallel phase lands in
//     state owned by that domain (its nodes' queues, buffers and output
//     channels) or in state owned exclusively by one worm — never in state
//     another domain may touch in the same phase.
//   - Order-dependent work (fault transitions, recovery aborts, retirement,
//     the watchdog) stays serial, and per-domain probe events and counter
//     deltas are merged at a barrier in fixed domain order.
//
// The per-domain scratch (keep lists, emitters, counter deltas) is
// preallocated at construction and reused every cycle, so the sharded
// no-probe step path stays 0 allocs/op like the serial one.

// Pool is a persistent worker pool stepping the domains of one sharded
// simulator. Worker 0 is the calling goroutine; workers 1..n-1 are
// goroutines parked between phases. A Pool holds no reference back to its
// Core, and the workers reference only the Pool's shared state, so an
// abandoned simulator is collectable: a finalizer closes the quit channel
// and the workers exit. Call Close to release them deterministically.
type Pool struct {
	workers int
	s       *poolShared
}

// poolShared is the state the worker goroutines retain. It deliberately
// excludes the Pool (and with it the Core) so that dropping the simulator
// makes the Pool unreachable, letting its finalizer run.
type poolShared struct {
	task  func(d int)
	wg    sync.WaitGroup
	start []chan struct{}
	quit  chan struct{}
}

// NewPool starts a pool with one worker per domain. workers must be >= 1;
// worker 0 runs on the goroutine that calls Run.
func NewPool(workers int) *Pool {
	p := &Pool{
		workers: workers,
		s: &poolShared{
			start: make([]chan struct{}, workers),
			quit:  make(chan struct{}),
		},
	}
	for d := 1; d < workers; d++ {
		p.s.start[d] = make(chan struct{}, 1)
		go p.s.worker(d)
	}
	runtime.SetFinalizer(p, (*Pool).Close)
	return p
}

func (s *poolShared) worker(d int) {
	for {
		select {
		case <-s.start[d]:
			s.task(d)
			s.wg.Done()
		case <-s.quit:
			return
		}
	}
}

// Run executes task(d) for every domain d in parallel and returns when all
// have finished (a barrier). Tasks must confine their writes to state owned
// by their domain. Run does not allocate: callers pass prebound function
// values, and the handoff is a buffered-channel send per worker.
func (p *Pool) Run(task func(d int)) {
	s := p.s
	s.task = task
	s.wg.Add(p.workers - 1)
	for d := 1; d < p.workers; d++ {
		s.start[d] <- struct{}{}
	}
	task(0)
	s.wg.Wait()
}

// Close stops the worker goroutines. It is idempotent; Run must not be
// called after Close.
func (p *Pool) Close() {
	if p.s != nil {
		runtime.SetFinalizer(p, nil)
		close(p.s.quit)
		p.s = nil
	}
}

// shardInj is one domain's injection-phase scratch: the surviving worklist
// entries and the counter deltas the serial merge folds into the Core after
// the barrier. Padded so adjacent domains do not share a cache line while
// the workers write.
type shardInj struct {
	keep      []int32
	dequeued  int
	deretried int
	dropped   int64
	progress  bool
	_         [64]byte
}

// initShards finishes sharding setup inside NewCore: domain bounds,
// per-domain emitters and injection scratch, and the worker pool.
func (c *Core) initShards(shards int, probe metrics.Probe) {
	nodes := c.Topo.Nodes()
	if shards > nodes {
		shards = nodes
	}
	if shards < 1 {
		shards = 1
	}
	c.shards = shards
	if shards <= 1 {
		return
	}
	c.bounds = make([]int32, shards+1)
	for d := 0; d <= shards; d++ {
		c.bounds[d] = int32(d * nodes / shards)
	}
	c.shardEm = make([]Emitter, shards)
	for d := range c.shardEm {
		c.shardEm[d] = NewEmitter(probe)
	}
	c.shardInjs = make([]shardInj, shards)
	c.pool = NewPool(shards)
}

// ShardCount reports the number of spatial domains the Core steps in
// parallel; 1 means serial stepping.
func (c *Core) ShardCount() int { return c.shards }

// ShardRange returns domain d's node-ID range [lo, hi). Domains are
// contiguous and ascending: domain 0 starts at node 0 and domain
// ShardCount()-1 ends at Nodes().
func (c *Core) ShardRange(d int) (lo, hi int32) {
	return c.bounds[d], c.bounds[d+1]
}

// RunShards executes task(d) for every domain on the worker pool (a
// barrier; see Pool.Run). With one shard it simply calls task(0).
func (c *Core) RunShards(task func(d int)) {
	if c.pool == nil {
		task(0)
		return
	}
	c.pool.Run(task)
}

// ShardEmitter returns domain d's probe-event buffer. Parallel phases emit
// into it instead of Em; AbsorbShardEmitters folds the buffers back into Em
// in domain order at the phase barrier.
func (c *Core) ShardEmitter(d int) *Emitter { return &c.shardEm[d] }

// AbsorbShardEmitters appends every domain's buffered probe events to the
// main emitter in ascending domain order and clears the buffers. Because
// domains are ascending node ranges, the merged order of a phase that
// visits nodes in ascending order within each domain is identical to the
// serial visit order.
func (c *Core) AbsorbShardEmitters() {
	for d := range c.shardEm {
		c.Em.Absorb(&c.shardEm[d])
	}
}

// Close releases the worker pool and returns the Core to serial stepping.
// It is idempotent and safe to call on a never-sharded Core. The engines
// expose it as their own Close; the pool also carries a finalizer, so a
// forgotten Close leaks nothing once the simulator is collected.
func (c *Core) Close() {
	if c.pool != nil {
		c.pool.Close()
		c.pool = nil
	}
	c.shards = 1
}

// injectSegment locates domain d's slice of the sorted pending worklist:
// entries with bounds[d] <= node < bounds[d+1]. Plain binary search, kept
// closure-free so the parallel phase does not allocate.
func (c *Core) injectSegment(d int) []int32 {
	p := c.pending
	lo, hi := c.bounds[d], c.bounds[d+1]
	i := lowerBound(p, lo)
	j := lowerBound(p, hi)
	return p[i:j]
}

// lowerBound returns the first index whose value is >= v in the ascending
// slice p.
func lowerBound(p []int32, v int32) int {
	i, j := 0, len(p)
	for i < j {
		h := int(uint(i+j) >> 1)
		if p[h] < v {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// injectDomain runs the injection loop over one domain's segment of the
// pending worklist. It is the sharded mirror of the serial loop in
// InjectPhase: the per-node logic is byte-for-byte the same, with the
// shared-counter updates and probe events redirected into the domain's
// scratch for the ordered merge after the barrier. All state it mutates —
// the nodes' queues, retry lists, worklist membership, and (through the
// engine's InjFree/InjPlaceShard hooks) their injection buffers — belongs
// to this domain's nodes.
func (c *Core) injectDomain(d int) {
	st := &c.shardInjs[d]
	em := &c.shardEm[d]
	st.keep = st.keep[:0]
	st.dequeued, st.deretried, st.dropped = 0, 0, 0
	st.progress = false
	for _, nd := range c.injectSegment(d) {
		node := topology.NodeID(nd)
		if c.InjFree(node) {
			for {
				p := c.popRetry(nd)
				if p != nil {
					st.deretried++
				} else {
					p = c.popQueue(nd)
					if p == nil {
						break
					}
					st.dequeued++
				}
				if c.Recovery.Enabled && c.Faults != nil && c.Faults.ActiveFaults() > 0 &&
					c.CutOff(node, p.Dst) {
					st.dropped++
					em.Drop(c.Cycle, p.Src, p.Dst, p.Length, metrics.DropUnreachable)
					st.progress = true
					continue // the injection buffer is still free; try the next
				}
				p.Injected = c.Cycle
				c.InjPlaceShard(d, node, p)
				st.progress = true
				em.Inject(c.Cycle, p.Src, p.Dst, p.Length)
				break
			}
		}
		if c.holdsRetries(nd) {
			st.keep = append(st.keep, nd)
		} else {
			c.inPending[nd] = false
		}
	}
}

// injectSharded is InjectPhase's parallel body: the sorted worklist is
// split at the domain bounds, every domain injects its own segment, and the
// surviving worklist entries, counter deltas and probe events are merged
// serially in domain order — reproducing the serial phase's ascending node
// order exactly.
func (c *Core) injectSharded() bool {
	c.RunShards(c.injectFn)
	progress := false
	out := c.pending[:0]
	for d := 0; d < c.shards; d++ {
		st := &c.shardInjs[d]
		out = append(out, st.keep...)
		c.queued -= st.dequeued
		c.retryCount -= st.deretried
		c.PacketsDropped += st.dropped
		progress = progress || st.progress
		c.Em.Absorb(&c.shardEm[d])
	}
	c.pending = out
	return progress
}
