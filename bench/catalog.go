package main

// The catalogue is the benchmark's contract: every workload and metric
// name below appears, with the same unit, direction and bound, in
// BENCHMARK.json at the repository root (bench_test.go holds the two
// together).

// metricDef declares one metric. Bound is the share of the parent
// commit's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"mesh-transpose", "paper figure 14 on internal/network: 16x16 mesh, half the points saturated, so contended Step cost dominates"},
	{"cube-reverseflip", "paper figure 16: 8-cube, 8 ports and up to 8 candidates per header, so routing, request sorting and output selection carry weight"},
	{"vc-mesh", "the only workload on the per-flit virtual-channel engine internal/vcnet, which has no other gated number"},
	{"faulted-compare", "resilience-mesh under recovery, masking and both: fault heap, aborts and retries, FaultAware masking and health dissemination are live"},
	{"sweep-parallel", "figure 13 at Jobs=2, the only workload through the runner's worker pool; dispatch order and the saturated tail show only here"},
	{"serve-mixed", "turnserved driven open loop with fresh, half-shared and resubmitted jobs: journal, leases, both cache tiers, SSE and HTTP all on the path"},
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them: for the batch workloads a job is one simulated sweep
// point, for serve-mixed it is one fresh HTTP job (see README.md). Every
// bound is the widest the benchmark's contract allows: on the reference
// container the same code reads up to a fifth slower when its neighbours
// are busy, and a bound tighter than the noise would call that a
// regression (README.md, "How steady it is").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sim_cycles_per_s", "cycles/s", "higher", 0.25},
	{"max_rss_mb", "MB", "lower", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_p90_ms", "ms", "lower", 0.25},
}

// perLayer is the ledger of the traced run. A layer a workload does not
// touch reports 0 on it.
var perLayer = []metricDef{
	{"topology.build_us", "us", "lower", 0},
	{"routing.build_us", "us", "lower", 0},
	{"network.build_us", "us", "lower", 0},
	{"vcnet.build_us", "us", "lower", 0},
	{"routing.candidates_ns", "ns", "lower", 0},
	{"routing.faultaware_candidates_ns", "ns", "lower", 0},
	{"vc.candidates_ns", "ns", "lower", 0},
	{"traffic.dest_ns", "ns", "lower", 0},
	{"sim.generate_s", "s", "lower", 0},
	{"network.step_ns", "ns", "lower", 0},
	{"network.steps", "count", "lower", 0},
	{"network.busy_s", "s", "lower", 0},
	{"network.ns_per_flit", "ns", "lower", 0},
	{"network.enqueue_ns", "ns", "lower", 0},
	{"network.take_delivered_ns", "ns", "lower", 0},
	{"network.cycles_skipped_frac", "frac", "higher", 0},
	{"vcnet.step_ns", "ns", "lower", 0},
	{"vcnet.steps", "count", "lower", 0},
	{"vcnet.busy_s", "s", "lower", 0},
	{"vcnet.ns_per_flit", "ns", "lower", 0},
	{"fault.events", "count", "lower", 0},
	{"fault.masked", "count", "lower", 0},
	{"fault.aborted", "count", "lower", 0},
	{"fault.retried", "count", "lower", 0},
	{"fault.dropped", "count", "lower", 0},
	{"stats.busy_s", "s", "lower", 0},
	{"sim.points", "count", "higher", 0},
	{"sim.point_ms_p50", "ms", "lower", 0},
	{"sim.point_ms_max", "ms", "lower", 0},
	{"sim.self_s", "s", "lower", 0},
	{"sim.worker_idle_frac", "frac", "lower", 0},
	{"sim.allocs_per_point", "count", "lower", 0},
	{"sim.alloc_kb_per_point", "KB", "lower", 0},
	{"sim.report_write_ms", "ms", "lower", 0},
	{"sim.cachekey_us", "us", "lower", 0},
	{"metrics.collector_overhead_frac", "frac", "lower", 0},
	{"simcache.key_us", "us", "lower", 0},
	{"simcache.get_mem_hit_us", "us", "lower", 0},
	{"simcache.get_disk_hit_us", "us", "lower", 0},
	{"simcache.get_miss_us", "us", "lower", 0},
	{"simcache.put_us", "us", "lower", 0},
	{"simcache.mem_hits", "count", "higher", 0},
	{"simcache.disk_hits", "count", "higher", 0},
	{"simcache.misses", "count", "lower", 0},
	{"simcache.hit_ratio", "frac", "higher", 0},
	{"jobstore.create_us", "us", "lower", 0},
	{"jobstore.append_sync_us", "us", "lower", 0},
	{"jobstore.append_nosync_us", "us", "lower", 0},
	{"jobstore.claim_us", "us", "lower", 0},
	{"jobstore.renew_us", "us", "lower", 0},
	{"jobstore.release_us", "us", "lower", 0},
	{"jobstore.replay_us", "us", "lower", 0},
	{"serve.parse_spec_us", "us", "lower", 0},
	{"serve.spec_key_us", "us", "lower", 0},
	{"serve.http_floor_us", "us", "lower", 0},
	{"serve.ack_p50_ms", "ms", "lower", 0},
	{"serve.first_point_p50_ms", "ms", "lower", 0},
	{"serve.sim_ms_p50", "ms", "lower", 0},
	{"serve.overhead_p50_ms", "ms", "lower", 0},
	{"serve.halfshared_p50_ms", "ms", "lower", 0},
	{"serve.warm_p50_ms", "ms", "lower", 0},
	{"serve.warm_p80_ms", "ms", "lower", 0},
	{"serve.worker_busy_frac", "frac", "lower", 0},
	{"serve.rejected_503", "count", "lower", 0},
	{"serve.rejected_429", "count", "lower", 0},
	{"serve.retries", "count", "lower", 0},
	{"serve.max_rate_under_limit", "jobs/s", "higher", 0},
	{"gen.late_p95_ms", "ms", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
