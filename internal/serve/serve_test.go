package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"turnmodel/internal/metrics"
	"turnmodel/internal/sim"
	"turnmodel/internal/simcache"
)

// quickSpec is a 4-point figure job (2 algorithms x 2 rates on figure13's
// 16x16 mesh) small enough to simulate in a test.
func quickSpec() JobSpec {
	return JobSpec{
		Figures:       []string{"figure13"},
		Rates:         []float64{0.01, 0.05},
		Algorithms:    []string{"xy", "west-first"},
		WarmupCycles:  300,
		MeasureCycles: 800,
		Seed:          2,
		Jobs:          2,
	}
}

// tickCounter counts engine cycles; zero ticks across a job proves no
// simulation ran.
type tickCounter struct {
	metrics.NopProbe
	ticks atomic.Int64
}

func (p *tickCounter) Tick(int64) { p.ticks.Add(1) }

// gateProbe blocks the first simulated cycle until released, pinning a job
// in the running state so tests can observe queue behavior.
type gateProbe struct {
	metrics.NopProbe
	start   sync.Once
	started chan struct{}
	release chan struct{}
}

func newGateProbe() *gateProbe {
	return &gateProbe{started: make(chan struct{}), release: make(chan struct{})}
}

func (p *gateProbe) Tick(int64) {
	p.start.Do(func() { close(p.started) })
	<-p.release
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, spec JobSpec) (Status, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 400 {
		return Status{}, resp.StatusCode
	}
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decoding status %q: %v", raw, err)
	}
	return st, resp.StatusCode
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE consumes the events stream until the "done" event (or EOF).
func readSSE(t *testing.T, ts *httptest.Server, id string) []sseEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				if cur.name == "done" {
					return events
				}
				cur = sseEvent{}
			}
		}
	}
	return events
}

func getReport(t *testing.T, ts *httptest.Server, id string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return raw, resp.StatusCode
}

func waitDone(t *testing.T, s *Server, id string) *Job {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
	return j
}

// TestSubmitStreamReport drives the whole happy path over HTTP: submit,
// stream every point over SSE, then fetch a report that round-trips
// through sim.ReadReport.
func TestSubmitStreamReport(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	st, code := submit(t, ts, quickSpec())
	if code != http.StatusCreated {
		t.Fatalf("submit status = %d, want 201", code)
	}
	events := readSSE(t, ts, st.ID)
	waitDone(t, s, st.ID)

	var points []sim.PointEvent
	for _, ev := range events {
		if ev.name != "point" {
			continue
		}
		var p sim.PointEvent
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatalf("decoding point %q: %v", ev.data, err)
		}
		points = append(points, p)
	}
	if len(points) != 4 {
		t.Fatalf("streamed %d points, want 4", len(points))
	}
	for i, p := range points {
		if p.Done != i+1 || p.Total != 4 {
			t.Errorf("point %d: done/total = %d/%d, want %d/4", i, p.Done, p.Total, i+1)
		}
		if p.Result.Packets == 0 {
			t.Errorf("point %d has empty result", i)
		}
	}
	last := events[len(events)-1]
	if last.name != "done" {
		t.Fatalf("last event = %q, want done", last.name)
	}
	var final Status
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Done != 4 {
		t.Fatalf("final status = %+v", final)
	}

	raw, code := getReport(t, ts, st.ID)
	if code != http.StatusOK {
		t.Fatalf("report status = %d: %s", code, raw)
	}
	rep, err := sim.ReadReport(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("served report does not round-trip: %v", err)
	}
	if len(rep.Figures) != 1 || rep.Figures[0].ID != "figure13" {
		t.Fatalf("report figures = %+v", rep.Figures)
	}
	if got := len(rep.Figures[0].Series); got != 2 {
		t.Fatalf("report series = %d, want 2", got)
	}

	// A late subscriber replays the complete stream.
	replay := readSSE(t, ts, st.ID)
	if len(replay) != len(events) {
		t.Fatalf("replayed %d events, want %d", len(replay), len(events))
	}
}

// TestResubmitServedFromArchive is the issue's acceptance check: an
// identical spec resubmitted — here to a second server sharing the cache,
// as after a restart — is answered from the archive with zero engine
// cycles and a byte-identical schema-v4 report. Differences in Jobs and
// the ignored Shards must not break the match.
func TestResubmitServedFromArchive(t *testing.T) {
	store := simcache.NewStore(simcache.Options{Dir: t.TempDir()})

	probe1 := &tickCounter{}
	s1, ts1 := newTestServer(t, Config{Workers: 2, Cache: store, Probe: probe1})
	st, code := submit(t, ts1, quickSpec())
	if code != http.StatusCreated {
		t.Fatalf("submit status = %d", code)
	}
	waitDone(t, s1, st.ID)
	first, code := getReport(t, ts1, st.ID)
	if code != http.StatusOK {
		t.Fatalf("report status = %d", code)
	}
	if probe1.ticks.Load() == 0 {
		t.Fatal("first run simulated nothing")
	}

	// Same server, same spec: deduplicated onto the existing job.
	st2, code := submit(t, ts1, quickSpec())
	if code != http.StatusOK || st2.ID != st.ID {
		t.Fatalf("resubmit = %d %q, want 200 onto %q", code, st2.ID, st.ID)
	}

	// Fresh server, shared cache: served from the archive, no simulation.
	probe2 := &tickCounter{}
	s2, ts2 := newTestServer(t, Config{Workers: 2, Cache: store, Probe: probe2})
	spec := quickSpec()
	spec.Jobs = 7 // execution-only; must still hit
	spec.Shards = 2
	st3, code := submit(t, ts2, spec)
	if code != http.StatusCreated {
		t.Fatalf("archived submit status = %d", code)
	}
	if !st3.FromCache || st3.State != StateDone || st3.Done != 4 {
		t.Fatalf("archived status = %+v, want instantly done from cache", st3)
	}
	waitDone(t, s2, st3.ID)
	second, code := getReport(t, ts2, st3.ID)
	if code != http.StatusOK {
		t.Fatalf("archived report status = %d", code)
	}
	if ticks := probe2.ticks.Load(); ticks != 0 {
		t.Fatalf("archived job ran %d engine cycles, want 0", ticks)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("archived report differs from original:\n%s\n---\n%s", first, second)
	}
	// The archived job's event stream is just the terminal event.
	events := readSSE(t, ts2, st3.ID)
	if len(events) != 1 || events[0].name != "done" {
		t.Fatalf("archived events = %+v, want a lone done", events)
	}
}

// TestResilienceTables runs a resilience job (no report — tables only) and
// checks the rendered tables arrive.
func TestResilienceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("resilience sweep is slow")
	}
	s, ts := newTestServer(t, Config{Workers: 2})
	spec := JobSpec{
		Resilience:    []string{"resilience-mesh"},
		WarmupCycles:  200,
		MeasureCycles: 400,
		Seed:          3,
	}
	st, code := submit(t, ts, spec)
	if code != http.StatusCreated {
		t.Fatalf("submit status = %d", code)
	}
	waitDone(t, s, st.ID)
	if _, code := getReport(t, ts, st.ID); code != http.StatusNotFound {
		t.Fatalf("report status = %d, want 404 for a figure-less job", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tables status = %d: %s", resp.StatusCode, raw)
	}
	for _, want := range []string{"west-first", "delivered"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("tables missing %q:\n%s", want, raw)
		}
	}
}

// TestBackpressure pins a job in the running state and checks the bounded
// queue refuses overflow with 503 instead of accepting unbounded work.
func TestBackpressure(t *testing.T) {
	gate := newGateProbe()
	_, ts := newTestServer(t, Config{Workers: 1, JobWorkers: 1, QueueDepth: 1, Probe: gate})
	defer close(gate.release)

	running := quickSpec()
	if _, code := submit(t, ts, running); code != http.StatusCreated {
		t.Fatalf("first submit = %d", code)
	}
	<-gate.started

	queued := quickSpec()
	queued.Seed = 100 // distinct content address
	if _, code := submit(t, ts, queued); code != http.StatusCreated {
		t.Fatalf("second submit = %d", code)
	}

	over := quickSpec()
	over.Seed = 200
	if _, code := submit(t, ts, over); code != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit = %d, want 503", code)
	}
}

// TestCancel cancels a running job over HTTP and checks it lands in the
// canceled state with the report gone.
func TestCancel(t *testing.T) {
	gate := newGateProbe()
	s, ts := newTestServer(t, Config{Workers: 1, Probe: gate})
	st, code := submit(t, ts, quickSpec())
	if code != http.StatusCreated {
		t.Fatalf("submit = %d", code)
	}
	<-gate.started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	close(gate.release)
	j := waitDone(t, s, st.ID)
	if j.State() != StateCanceled {
		t.Fatalf("state after cancel = %q", j.State())
	}
	if _, code := getReport(t, ts, st.ID); code != http.StatusGone {
		t.Fatalf("report after cancel = %d, want 410", code)
	}
}

// TestShutdownDrains submits work and checks Shutdown lets it finish, then
// refuses new submissions.
func TestShutdownDrains(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	spec := quickSpec()
	j, created, err := s.Submit(spec, "test")
	if err != nil || !created {
		t.Fatalf("submit: %v created=%v", err, created)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if j.State() != StateDone {
		t.Fatalf("state after drain = %q, want done", j.State())
	}
	if _, _, err := s.Submit(spec, "test"); err != ErrShuttingDown {
		t.Fatalf("submit after shutdown = %v, want ErrShuttingDown", err)
	}
}

// TestBadSpecs checks each malformed submission is rejected with 400
// before any simulation.
func TestBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"empty spec", `{}`},
		{"unknown figure", `{"figures":["figure99"]}`},
		{"unknown resilience", `{"resilience":["nope"]}`},
		{"unknown field", `{"figuers":["figure13"]}`},
		{"trailing garbage", `{"figures":["figure13"]}{}`},
		{"bad seed mode", `{"figures":["figure13"],"seed_mode":"random"}`},
		{"compare without resilience", `{"figures":["figure13"],"compare":true}`},
		{"negative rate", `{"figures":["figure13"],"rates":[-0.1]}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// TestKeyIgnoresExecutionFields pins the job content address to result
// identity: execution knobs don't move it, result-changing fields do.
func TestKeyIgnoresExecutionFields(t *testing.T) {
	base := quickSpec()
	baseKey, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	same := base
	same.Jobs = 16
	same.Shards = 4
	same.TimeoutS = 30
	if k, _ := same.Key(); k != baseKey {
		t.Fatalf("Jobs/Shards/TimeoutS changed the key: %s vs %s", k, baseKey)
	}
	for name, mutate := range map[string]func(*JobSpec){
		"seed":    func(s *JobSpec) { s.Seed++ },
		"rates":   func(s *JobSpec) { s.Rates = []float64{0.02} },
		"algs":    func(s *JobSpec) { s.Algorithms = []string{"xy"} },
		"warmup":  func(s *JobSpec) { s.WarmupCycles++ },
		"mode":    func(s *JobSpec) { s.SeedMode = "hash" },
		"metrics": func(s *JobSpec) { s.Metrics = true },
		"faults":  func(s *JobSpec) { s.FaultRate = 1e-6 },
	} {
		changed := base
		mutate(&changed)
		if k, _ := changed.Key(); k == baseKey {
			t.Errorf("%s change did not move the key", name)
		}
	}

	// The deprecated shards field is accepted on the wire and ignored: a
	// spec carrying it has the key of one without, and is answered with
	// the same report bytes, served from the archive without simulating.
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := ParseSpec(strings.NewReader(`{"shards":4,` + string(raw[1:])))
	if err != nil {
		t.Fatalf("a spec with shards was rejected: %v", err)
	}
	if k, _ := sharded.Key(); sharded.Shards != 4 || k != baseKey {
		t.Fatalf("shards=%d: key %s, want %s", sharded.Shards, k, baseKey)
	}
	store := simcache.NewStore(simcache.Options{Dir: t.TempDir()})
	s1, ts1 := newTestServer(t, Config{Workers: 2, Cache: store})
	st, code := submit(t, ts1, base)
	if code != http.StatusCreated {
		t.Fatalf("submit status = %d", code)
	}
	waitDone(t, s1, st.ID)
	want, _ := getReport(t, ts1, st.ID)
	probe := &tickCounter{}
	s2, ts2 := newTestServer(t, Config{Workers: 2, Cache: store, Probe: probe})
	st2, code := submit(t, ts2, sharded)
	if code != http.StatusCreated {
		t.Fatalf("submit with shards status = %d", code)
	}
	waitDone(t, s2, st2.ID)
	got, _ := getReport(t, ts2, st2.ID)
	if ticks := probe.ticks.Load(); ticks != 0 || !bytes.Equal(got, want) {
		t.Fatalf("the spec with shards ran %d engine cycles; report equal = %v", ticks, bytes.Equal(got, want))
	}
}

// TestStats smoke-checks the stats and health endpoints.
func TestStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/stats", "/v1/healthz", "/healthz", "/readyz", "/v1/jobs"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d", path, resp.StatusCode)
		}
		if !json.Valid(raw) {
			t.Errorf("%s returned invalid JSON: %s", path, raw)
		}
	}
}

// BenchmarkServeCachedPoint measures the full HTTP round trip of a job
// answered from the report archive — submit plus report fetch. The
// benchgate absolute ceiling keeps this pinned at cache speed: if serving
// a warm spec ever falls back to simulation (tens of milliseconds per
// point), the gate trips.
func BenchmarkServeCachedPoint(b *testing.B) {
	store := simcache.NewStore(simcache.Options{})
	s := NewServer(Config{Workers: 2, Cache: store})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := quickSpec()
	body, _ := json.Marshal(spec)
	warm, _, err := s.Submit(spec, "bench")
	if err != nil {
		b.Fatal(err)
	}
	<-warm.Done()
	if warm.State() != StateDone {
		b.Fatalf("warmup job state = %q", warm.State())
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			b.Fatalf("submit status = %d", resp.StatusCode)
		}
		rep, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/report", ts.URL, st.ID))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, rep.Body); err != nil {
			b.Fatal(err)
		}
		rep.Body.Close()
		if rep.StatusCode != http.StatusOK {
			b.Fatalf("report status = %d", rep.StatusCode)
		}
	}
}
