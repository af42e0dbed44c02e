package sim

import (
	"testing"

	"turnmodel/internal/fault"
	"turnmodel/internal/metrics"
	"turnmodel/internal/routing"
	"turnmodel/internal/topology"
	"turnmodel/internal/traffic"
	"turnmodel/internal/vc"
)

// keyCfg builds a small cacheable baseline configuration.
func keyCfg(t *testing.T) Config {
	t.Helper()
	mesh := topology.NewMesh2D(8, 8)
	alg, err := routing.New("xy", mesh)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Routing: alg,
		RunParams: RunParams{
			Pattern:       traffic.Uniform{Topo: mesh},
			InjectionRate: 0.05,
			Seed:          7,
		},
	}
}

func mustKey(t *testing.T, cfg Config) string {
	t.Helper()
	key, ok := CacheKey(cfg)
	if !ok {
		t.Fatal("configuration unexpectedly uncacheable")
	}
	return key
}

// TestCacheKeyNormalization pins the half of key soundness that creates
// hits: spelling a parameter as its zero value or as the explicit default,
// and toggling anything that cannot affect the Result, must address the
// same cache entry.
func TestCacheKeyNormalization(t *testing.T) {
	base := mustKey(t, keyCfg(t))
	for name, mutate := range map[string]func(*Config){
		"explicit default lengths": func(c *Config) { c.Lengths = []int{10, 200} },
		"explicit default windows": func(c *Config) { c.WarmupCycles, c.MeasureCycles = 20000, 40000 },
		"disabled recovery thresholds": func(c *Config) {
			c.Recovery = fault.Recovery{Enabled: false, StallCycles: 777, MaxRetries: 3}
		},
		"fault routing without faults": func(c *Config) {
			c.FaultRouting = fault.RoutingPolicy{Visibility: fault.VisibilityKHop, MisrouteLimit: 4}
		},
		"collector options without collector": func(c *Config) {
			c.MetricsOptions = metrics.Options{OccupancyEvery: 5}
		},
		"probe attached": func(c *Config) { c.Probe = metrics.NopProbe{} },
		"stepped clock":  func(c *Config) { c.DisableEventSkip = true },
	} {
		cfg := keyCfg(t)
		mutate(&cfg)
		if got := mustKey(t, cfg); got != base {
			t.Errorf("%s changed the key: %s vs %s", name, got, base)
		}
	}
	// Enabled recovery is normalized through its own defaults: the zero
	// thresholds and the spelled-out defaults are one entry.
	implicit := keyCfg(t)
	implicit.Recovery = fault.Recovery{Enabled: true}
	explicit := keyCfg(t)
	explicit.Recovery = fault.Recovery{Enabled: true}.WithDefaults()
	if mustKey(t, implicit) != mustKey(t, explicit) {
		t.Error("default and explicit recovery thresholds hash differently")
	}
}

// TestCacheKeySensitivity is the other half: every semantic change must
// miss. A collision here would silently serve the wrong physics.
func TestCacheKeySensitivity(t *testing.T) {
	base := mustKey(t, keyCfg(t))
	keys := map[string]string{"base": base}
	for name, mutate := range map[string]func(*Config){
		"seed":          func(c *Config) { c.Seed = 8 },
		"rate":          func(c *Config) { c.InjectionRate = 0.06 },
		"lengths":       func(c *Config) { c.Lengths = []int{10} },
		"warmup":        func(c *Config) { c.WarmupCycles = 19999 },
		"measure":       func(c *Config) { c.MeasureCycles = 40001 },
		"watchdog":      func(c *Config) { c.WatchdogCycles = 5000 },
		"metrics":       func(c *Config) { c.Metrics = true },
		"routing delay": func(c *Config) { c.RoutingDelay = 1 },
		"fault plan":    func(c *Config) { c.FaultPlan = fault.Plan{Rate: 1e-6, Seed: 9} },
		"fault plan seed": func(c *Config) {
			c.FaultPlan = fault.Plan{Rate: 1e-6, Seed: 10}
		},
		"static fault": func(c *Config) {
			c.FaultPlan = fault.Plan{Static: []topology.Channel{{From: 0, To: 1}}}
		},
		"recovery": func(c *Config) { c.Recovery = fault.Recovery{Enabled: true} },
		"recovery retries": func(c *Config) {
			c.Recovery = fault.Recovery{Enabled: true, MaxRetries: 2}
		},
		"masking policy": func(c *Config) {
			c.FaultPlan = fault.Plan{Rate: 1e-6, Seed: 9}
			c.FaultRouting = fault.RoutingPolicy{Visibility: fault.VisibilityKHop, MisrouteLimit: 4}
		},
		"algorithm": func(c *Config) {
			alg, err := routing.New("west-first", c.Routing.Topology())
			if err != nil {
				t.Fatal(err)
			}
			c.Routing = alg
		},
		"topology": func(c *Config) {
			mesh := topology.NewMesh2D(4, 4)
			alg, err := routing.New("xy", mesh)
			if err != nil {
				t.Fatal(err)
			}
			c.Routing = alg
			c.Pattern = traffic.Uniform{Topo: mesh}
		},
		"pattern": func(c *Config) {
			c.Pattern = traffic.Hotspot{Topo: c.Routing.Topology(), Hot: 0, Fraction: 0.1}
		},
		"hotspot node": func(c *Config) {
			c.Pattern = traffic.Hotspot{Topo: c.Routing.Topology(), Hot: 5, Fraction: 0.1}
		},
	} {
		cfg := keyCfg(t)
		mutate(&cfg)
		key := mustKey(t, cfg)
		for prev, prevKey := range keys {
			if key == prevKey {
				t.Errorf("%q and %q collide on %s", name, prev, key)
			}
		}
		keys[name] = key
	}
}

// oddPattern is a Pattern the key builder has never heard of.
type oddPattern struct{ traffic.Uniform }

func (oddPattern) Name() string { return "odd" }

// TestCacheKeyUnknownPatternUncacheable: a pattern type outside the stock
// set may hide state its name does not show, so it must decline to cache —
// and RunCached must degrade to a plain run, not an error and not a hit.
func TestCacheKeyUnknownPatternUncacheable(t *testing.T) {
	cfg := keyCfg(t)
	cfg.Pattern = oddPattern{traffic.Uniform{Topo: cfg.Routing.Topology()}}
	if _, ok := CacheKey(cfg); ok {
		t.Fatal("unknown pattern type produced a cache key")
	}
	cfg.WarmupCycles, cfg.MeasureCycles = 200, 400
	cache := countingCache{}
	res, hit := RunCached(cfg, cache)
	if hit {
		t.Error("uncacheable configuration reported a cache hit")
	}
	if len(cache) != 0 {
		t.Error("uncacheable configuration wrote to the cache")
	}
	if res.Packets == 0 {
		t.Error("degraded run did not simulate")
	}
}

// countingCache is a map-backed Cache for tests.
type countingCache map[string][]byte

func (c countingCache) Get(key string) ([]byte, bool) { v, ok := c[key]; return v, ok }
func (c countingCache) Put(key string, val []byte) error {
	c[key] = val
	return nil
}

// TestCacheKeyVC: the virtual-channel simulator keys its own namespace —
// identical run parameters under the two engines must never share an entry
// — and normalization applies there too.
func TestCacheKeyVC(t *testing.T) {
	mesh := topology.NewMesh2D(8, 8)
	dy, err := vc.New("double-y", mesh)
	if err != nil {
		t.Fatal(err)
	}
	params := RunParams{Pattern: traffic.Uniform{Topo: mesh}, InjectionRate: 0.05, Seed: 7}
	vcKey, ok := CacheKeyVC(VCConfig{Routing: dy, RunParams: params})
	if !ok {
		t.Fatal("VC configuration uncacheable")
	}
	phys := keyCfg(t)
	if physKey := mustKey(t, phys); physKey == vcKey {
		t.Error("physical and VC keys collide")
	}
	normalized := params
	normalized.Lengths = []int{10, 200}
	normalized.DisableEventSkip = true
	again, _ := CacheKeyVC(VCConfig{Routing: dy, RunParams: normalized})
	if again != vcKey {
		t.Error("VC key not normalized")
	}
	miss := params
	miss.Seed = 8
	other, _ := CacheKeyVC(VCConfig{Routing: dy, RunParams: miss})
	if other == vcKey {
		t.Error("VC key insensitive to seed")
	}
}

// TestRunVCCachedHitSkipsSimulation mirrors the physical-engine guarantee
// on the VC engine: the second run is served without stepping.
func TestRunVCCachedHitSkipsSimulation(t *testing.T) {
	mesh := topology.NewMesh2D(8, 8)
	dy, err := vc.New("double-y", mesh)
	if err != nil {
		t.Fatal(err)
	}
	probe := &tickCounter{}
	cfg := VCConfig{
		Routing: dy,
		RunParams: RunParams{
			Pattern:       traffic.Uniform{Topo: mesh},
			InjectionRate: 0.05,
			WarmupCycles:  300,
			MeasureCycles: 800,
			Seed:          11,
			Probe:         probe,
		},
	}
	cache := countingCache{}
	first, hit := RunVCCached(cfg, cache)
	if hit {
		t.Fatal("cold VC run hit")
	}
	if probe.ticks.Load() == 0 {
		t.Fatal("cold VC run did not simulate")
	}
	probe.ticks.Store(0)
	second, hit := RunVCCached(cfg, cache)
	if !hit {
		t.Fatal("warm VC run missed")
	}
	if probe.ticks.Load() != 0 {
		t.Error("warm VC run stepped the engine")
	}
	if first != second {
		t.Errorf("cached VC result diverges:\n%+v\n%+v", first, second)
	}
}
