package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"turnmodel/internal/jobstore"
	"turnmodel/internal/routing"
	"turnmodel/internal/serve"
	"turnmodel/internal/sim"
	"turnmodel/internal/simcache"
)

// perCallUs times fn over n calls and returns the mean in microseconds.
func perCallUs(n int, fn func(i int) error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / float64(n), nil
}

// serviceLayerMetrics times the service's layers from outside, by calling
// their exported functions with the workload's own inputs — its specs,
// their content addresses, its report bytes — in a scratch directory. The
// journal and lease numbers depend on the filesystem under the checkout;
// they are recorded so that a different disk is visible.
func serviceLayerMetrics(tmp, base string, main *loadResult, m map[string]float64) error {
	var (
		specs   []serve.JobSpec
		bodies  [][]byte
		keys    []string
		reports [][]byte
	)
	for i, job := range main.Jobs {
		if job.Kind != kindFresh || main.Outcomes[i].Err != "" {
			continue
		}
		key, err := job.Spec.Key()
		if err != nil {
			return err
		}
		specs, bodies = append(specs, job.Spec), append(bodies, job.Body)
		keys, reports = append(keys, key), append(reports, main.Outcomes[i].ReportBytes)
	}
	n := len(specs)
	if n == 0 {
		return fmt.Errorf("no fresh job to time the service layers with")
	}
	var err error
	set := func(name string, fn func(i int) error) {
		if err == nil {
			m[name], err = perCallUs(n, fn)
		}
	}

	set("serve.parse_spec_us", func(i int) error {
		_, err := serve.ParseSpec(bytes.NewReader(bodies[i]))
		return err
	})
	set("serve.spec_key_us", func(i int) error {
		_, err := specs[i].Key()
		return err
	})
	set("simcache.key_us", func(i int) error {
		_, err := simcache.Key(map[string]any{"spec": specs[i]})
		return err
	})
	conn := newConn()
	set("serve.http_floor_us", func(int) error {
		resp, err := conn.Get(base + "/healthz")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	})

	// sim: the content address of a point and the rendering of a report.
	configs := make([]sim.Config, n)
	for i, spec := range specs {
		opts, oerr := spec.Options()
		if oerr != nil {
			return oerr
		}
		fig := opts.Specs[0]
		topo := fig.NewTopology()
		alg, aerr := routing.New(fig.Algorithms[0], topo)
		if aerr != nil {
			return aerr
		}
		configs[i] = sim.Config{Routing: alg, RunParams: sim.RunParams{
			Pattern:       fig.NewPattern(topo),
			InjectionRate: fig.Rates[0],
			WarmupCycles:  opts.WarmupCycles,
			MeasureCycles: opts.MeasureCycles,
			Seed:          opts.Seed,
		}}
	}
	set("sim.cachekey_us", func(i int) error {
		if _, ok := sim.CacheKey(configs[i]); !ok {
			return fmt.Errorf("point of job %d is not cacheable", i)
		}
		return nil
	})
	parsed := make([]*sim.Report, n)
	for i, raw := range reports {
		if parsed[i], err = sim.ReadReport(bytes.NewReader(raw)); err != nil {
			return err
		}
	}
	set("sim.report_write_ms", func(i int) error { return parsed[i].WriteJSON(io.Discard) })
	m["sim.report_write_ms"] /= 1000

	// simcache: both tiers, on the jobs' keys and report payloads.
	cacheDir := filepath.Join(tmp, "layers-cache")
	store := simcache.NewStore(simcache.Options{Dir: cacheDir})
	set("simcache.put_us", func(i int) error { return store.Put(keys[i], reports[i]) })
	hit := func(s *simcache.Store) func(i int) error {
		return func(i int) error {
			if _, ok := s.Get(keys[i]); !ok {
				return fmt.Errorf("simcache lost key %s", keys[i])
			}
			return nil
		}
	}
	set("simcache.get_mem_hit_us", hit(store))
	store.Close()
	cold := simcache.NewStore(simcache.Options{Dir: cacheDir})
	defer cold.Close()
	set("simcache.get_disk_hit_us", hit(cold))
	set("simcache.get_miss_us", func(i int) error {
		// The key of job i reversed: well-formed, and never stored.
		rev := []byte(keys[i])
		for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
			rev[a], rev[b] = rev[b], rev[a]
		}
		if _, ok := cold.Get(string(rev)); ok {
			return fmt.Errorf("simcache hit on a key never stored")
		}
		return nil
	})

	// jobstore: one journal per job through its lifecycle, then replay.
	js, jerr := jobstore.Open(filepath.Join(tmp, "layers-jobs"))
	if jerr != nil {
		return jerr
	}
	now := time.Now()
	set("jobstore.create_us", func(i int) error {
		return js.Create(keys[i], jobstore.Record{Kind: jobstore.RecordSubmitted, Time: now, ID: fmt.Sprintf("job-bench-%d", i), Client: "bench", Spec: bodies[i]})
	})
	leases := make([]jobstore.Lease, n)
	set("jobstore.claim_us", func(i int) error {
		l, _, err := js.Claim(keys[i], "bench", 10*time.Second)
		leases[i] = l
		return err
	})
	set("jobstore.append_sync_us", func(i int) error {
		return js.Append(keys[i], jobstore.Record{Kind: jobstore.RecordStarted, Time: now, Owner: "bench", Fence: leases[i].Gen, Attempt: 1}, true)
	})
	point, _ := json.Marshal(sim.PointEvent{Kind: sim.PointFigure, Figure: "figure13", Algorithm: "xy", Total: 2})
	set("jobstore.append_nosync_us", func(i int) error {
		return js.Append(keys[i], jobstore.Record{Kind: jobstore.RecordPoint, Time: now, Point: point}, false)
	})
	set("jobstore.renew_us", func(i int) error { return js.Renew(&leases[i], 10*time.Second) })
	set("jobstore.release_us", func(i int) error { return js.Release(leases[i]) })
	set("jobstore.replay_us", func(i int) error {
		_, ok, err := js.Job(keys[i], true)
		if err == nil && !ok {
			err = fmt.Errorf("jobstore lost journal %s", keys[i])
		}
		return err
	})
	return err
}
