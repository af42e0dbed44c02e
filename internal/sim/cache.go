package sim

import (
	"encoding/json"
	"fmt"

	"turnmodel/internal/fault"
	"turnmodel/internal/traffic"

	"turnmodel/internal/simcache"
)

// Cache is the content-addressed result cache consulted by Runner,
// RunCached and RunVCCached. Keys are content addresses computed by
// CacheKey/CacheKeyVC; values are the JSON encoding of the Result they
// denote. simcache.Store implements it; any conforming store works.
//
// Caching is sound because a Result is a pure function of (normalized run
// parameters, seed, engine version): seeds derive from job identity alone,
// never from scheduling, so equal keys always denote equal results.
type Cache interface {
	// Get returns the payload stored under key, if present.
	Get(key string) ([]byte, bool)
	// Put stores the payload under key. Errors are the store's to count;
	// callers treat a failed Put as a skipped optimization, not a failure.
	Put(key string, val []byte) error
}

// EngineVersion names the simulation semantics cache keys are computed
// under. Bump it whenever a change can make any Result differ for the same
// configuration and seed — every cached entry is invalidated at once, which
// is exactly what such a change requires. The report schema version is part
// of every key too, so payload-shape changes also miss cleanly.
const EngineVersion = "turnmodel-sim/1"

// patternIdentity renders a traffic pattern's full identity for cache
// keying, or reports it uncacheable. Pattern.Name is not sufficient — the
// stock Hotspot pattern's name omits the hot node — and arbitrary
// user-provided Pattern implementations may hide state the name does not
// show, so only the stock types are keyable and everything else declines
// to cache rather than risk a false hit. The enclosing key always carries
// the topology name (which includes its dimensions), so topology-derived
// state needs no repetition here.
func patternIdentity(p traffic.Pattern) (string, bool) {
	switch t := p.(type) {
	case traffic.Uniform:
		return "uniform", true
	case traffic.MeshTranspose:
		return "mesh-transpose", true
	case traffic.HypercubeTranspose:
		return "hypercube-transpose", true
	case traffic.ReverseFlip:
		return "reverse-flip", true
	case traffic.BitComplement:
		return "bit-complement", true
	case traffic.BitReversal:
		return "bit-reversal", true
	case traffic.Hotspot:
		return fmt.Sprintf("hotspot(hot=%d,frac=%g)", int(t.Hot), t.Fraction), true
	default:
		return "", false
	}
}

// faultPlanKey renders a fault plan for keying. Channel and node lists are
// kept positionally (reordering a fault list is a conservative miss).
func faultPlanKey(fp fault.Plan) map[string]any {
	m := map[string]any{
		"rate":   fp.Rate,
		"repair": fp.Repair,
		"seed":   fp.Seed,
	}
	if len(fp.Static) > 0 {
		chans := make([]map[string]any, len(fp.Static))
		for i, ch := range fp.Static {
			chans[i] = map[string]any{
				"from": int(ch.From), "to": int(ch.To),
				"dir": int(ch.Dir), "wrap": ch.Wrap,
			}
		}
		m["static"] = chans
	}
	if len(fp.Nodes) > 0 {
		m["nodes"] = fp.Nodes
	}
	return m
}

// runParamsKey renders the normalized RunParams for keying, or reports the
// configuration uncacheable. Normalization applies the Run defaults first,
// so explicit defaults and zero values address the same entry, and prunes
// whole subsystems that cannot affect the Result:
//
//   - DisableEventSkip never enters a key: results are bit-identical in
//     both clock modes (the engine's event-skipping guarantee) — it
//     chooses how the simulation executes, not what it computes.
//   - Probe never enters a key: probes observe, they do not perturb. A
//     cache hit therefore emits no probe events at all — which is how
//     callers assert that no simulation ran.
//   - Recovery thresholds are dropped when recovery is disabled, the
//     fault-routing policy when no faults exist to mask, and the collector
//     options when no collector is attached.
func runParamsKey(p RunParams) (map[string]any, bool) {
	pat, ok := patternIdentity(p.Pattern)
	if !ok {
		return nil, false
	}
	p = p.withDefaults()
	m := map[string]any{
		"pattern":  pat,
		"rate":     p.InjectionRate,
		"lengths":  p.Lengths,
		"warmup":   p.WarmupCycles,
		"measure":  p.MeasureCycles,
		"seed":     p.Seed,
		"watchdog": p.WatchdogCycles,
		"metrics":  p.Metrics,
	}
	if p.Metrics {
		m["metrics_options"] = p.MetricsOptions
	}
	if !p.FaultPlan.Empty() {
		m["fault"] = faultPlanKey(p.FaultPlan)
		if p.FaultRouting.Enabled() {
			pol := p.FaultRouting.WithDefaults()
			m["fault_routing"] = map[string]any{
				"visibility": pol.Visibility.String(),
				"radius":     pol.Radius,
				"misroute":   pol.MisrouteLimit,
			}
		}
	}
	if p.Recovery.Enabled {
		m["recovery"] = p.Recovery.WithDefaults()
	}
	return m, true
}

// CacheKey computes the content address of a physical-channel run: the
// canonical-JSON hash of (engine version, report schema version, algorithm,
// topology, arbitration policies, normalized RunParams). The second return
// is false when the configuration is not cacheable — an unrecognized
// traffic pattern type — in which case callers simply simulate.
//
// The algorithm contributes its registry name; callers constructing
// algorithms outside the routing registry must not reuse a registry name
// for different semantics, or keys would collide. Runner always constructs
// through the registry, so its keys are sound by construction.
func CacheKey(cfg Config) (string, bool) {
	params, ok := runParamsKey(cfg.RunParams)
	if !ok {
		return "", false
	}
	m := map[string]any{
		"engine":        EngineVersion,
		"schema":        ReportSchemaVersion,
		"simulator":     "physical",
		"algorithm":     cfg.Routing.Name(),
		"topology":      cfg.Routing.Topology().Name(),
		"params":        params,
		"routing_delay": cfg.RoutingDelay,
	}
	if cfg.Output != nil {
		m["output"] = cfg.Output.Name()
	}
	if cfg.Input != nil {
		m["input"] = cfg.Input.Name()
	}
	key, err := simcache.Key(m)
	if err != nil {
		return "", false
	}
	return key, true
}

// CacheKeyVC is CacheKey for the virtual-channel simulator.
func CacheKeyVC(cfg VCConfig) (string, bool) {
	params, ok := runParamsKey(cfg.RunParams)
	if !ok {
		return "", false
	}
	m := map[string]any{
		"engine":    EngineVersion,
		"schema":    ReportSchemaVersion,
		"simulator": "vc",
		"algorithm": cfg.Routing.Name(),
		"topology":  cfg.Routing.Topology().Name(),
		"params":    params,
	}
	key, err := simcache.Key(m)
	if err != nil {
		return "", false
	}
	return key, true
}

// lookupCached consults the cache for a precomputed Result.
func lookupCached(cache Cache, key string) (Result, bool) {
	raw, ok := cache.Get(key)
	if !ok {
		return Result{}, false
	}
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil {
		// A corrupt payload is a miss; the fresh result overwrites it.
		return Result{}, false
	}
	return res, true
}

// storeCached records a fresh Result under key. A failed Put only costs
// future hits, so the error is deliberately dropped (the store's Stats
// surface it to operators).
func storeCached(cache Cache, key string, res Result) {
	if raw, err := json.Marshal(res); err == nil {
		_ = cache.Put(key, raw)
	}
}

// RunCached is Run behind the content-addressed cache: a hit returns the
// stored Result without simulating at all (no engine is even constructed),
// a miss simulates and stores. The second return reports whether the cache
// served the result. A nil cache or an uncacheable configuration degrades
// to a plain Run.
func RunCached(cfg Config, cache Cache) (Result, bool) {
	return runCached(cfg, cache, Run)
}

// runCached is RunCached with the simulation a miss runs supplied: Run, or
// a sweep worker's Run on the network it reuses.
func runCached(cfg Config, cache Cache, run func(Config) Result) (Result, bool) {
	if cache == nil {
		return run(cfg), false
	}
	key, ok := CacheKey(cfg)
	if !ok {
		return run(cfg), false
	}
	if res, hit := lookupCached(cache, key); hit {
		return res, true
	}
	res := run(cfg)
	storeCached(cache, key, res)
	return res, false
}

// RunVCCached is RunCached for the virtual-channel simulator.
func RunVCCached(cfg VCConfig, cache Cache) (Result, bool) {
	if cache == nil {
		return RunVC(cfg), false
	}
	key, ok := CacheKeyVC(cfg)
	if !ok {
		return RunVC(cfg), false
	}
	if res, hit := lookupCached(cache, key); hit {
		return res, true
	}
	res := RunVC(cfg)
	storeCached(cache, key, res)
	return res, false
}
