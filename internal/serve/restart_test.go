package serve

// Restart and replication coverage: servers sharing one cache directory —
// sequentially (a restart) or concurrently (replicas) — must agree on job
// identity, execute every accepted job exactly once, and serve archived
// reports byte-identically, whatever the previous process was doing when
// it stopped.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"turnmodel/internal/jobstore"
	"turnmodel/internal/sim"
	"turnmodel/internal/simcache"
)

// durableEnv is one shared cache directory: the result cache and the job
// store a fleet of servers would mount together.
type durableEnv struct {
	cacheDir string
	jobsDir  string
	spec     JobSpec
	key      string

	// Set by scenario prepare steps for the check step.
	report []byte
	jobID  string
}

func newDurableEnv(t *testing.T) *durableEnv {
	t.Helper()
	dir := t.TempDir()
	spec := quickSpec()
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	return &durableEnv{
		cacheDir: filepath.Join(dir, "cache"),
		jobsDir:  filepath.Join(dir, "jobs"),
		spec:     spec,
		key:      key,
	}
}

func (e *durableEnv) openStore(t *testing.T) *jobstore.Store {
	t.Helper()
	st, err := jobstore.Open(e.jobsDir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// config builds a durable server config with fresh cache and store handles,
// as a new process mounting the shared directory would.
func (e *durableEnv) config(t *testing.T, replica string) Config {
	t.Helper()
	return Config{
		Workers:    2,
		JobWorkers: 1,
		Cache:      simcache.NewStore(simcache.Options{Dir: e.cacheDir}),
		Store:      e.openStore(t),
		ReplicaID:  replica,
		LeaseTTL:   2 * time.Second,
	}
}

// runServer runs fn against a live server and shuts it down before
// returning — the "previous process" of a restart scenario.
func (e *durableEnv) runServer(t *testing.T, cfg Config, fn func(s *Server, ts *httptest.Server)) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	fn(s, ts)
}

// mustMarshal is a test-local json.Marshal that cannot fail silently.
func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// journalRecords fetches a journal's raw record list.
func journalRecords(t *testing.T, st *jobstore.Store, key string) []jobstore.Record {
	t.Helper()
	recs, ok, err := st.Records(key)
	if err != nil || !ok {
		t.Fatalf("reading journal for %s: ok=%v err=%v", key, ok, err)
	}
	return recs
}

// waitTerminalRecord re-reads the job's journal until its last record is the
// terminal one, and returns the records. A job's Done channel closes just
// before its terminal record is appended (settle: finish, then
// journalFinish), so a caller arriving straight from waitDone may be early —
// and until the record lands, the journal, and with it every other replica,
// still says the job is running.
func waitTerminalRecord(t *testing.T, st *jobstore.Store, key string) []jobstore.Record {
	t.Helper()
	recs := journalRecords(t, st, key)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); recs = journalRecords(t, st, key) {
		if n := len(recs); n > 0 && recs[n-1].Kind == jobstore.RecordTerminal {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	return recs
}

// assertJournalInvariants checks the exactly-once shape every finished
// journal must have: exactly one terminal record, and strictly increasing
// fencing tokens across started records (each new executor out-fences the
// last). It waits for the terminal record first (see waitTerminalRecord).
func assertJournalInvariants(t *testing.T, st *jobstore.Store, key, wantState string) {
	t.Helper()
	recs := waitTerminalRecord(t, st, key)
	terminals := 0
	var lastFence uint64
	for _, rec := range recs {
		switch rec.Kind {
		case jobstore.RecordTerminal:
			terminals++
			if rec.State != wantState {
				t.Errorf("terminal state = %q, want %q", rec.State, wantState)
			}
		case jobstore.RecordStarted:
			if rec.Fence <= lastFence {
				t.Errorf("started fence %d not greater than previous %d", rec.Fence, lastFence)
			}
			lastFence = rec.Fence
		}
	}
	if terminals != 1 {
		t.Errorf("journal has %d terminal records, want exactly 1", terminals)
	}
}

// TestRestartRecovery drives the recovery matrix from docs/service.md: what
// a restarted (or surviving) replica does with a journal left behind at
// each phase of a job's life.
func TestRestartRecovery(t *testing.T) {
	cases := []struct {
		name    string
		prepare func(t *testing.T, e *durableEnv)
		check   func(t *testing.T, e *durableEnv, s *Server, ts *httptest.Server)
	}{
		{
			// A finished job's report must come back byte-identical from the
			// next process, without re-running; the pre-restart job URL must
			// keep resolving.
			name: "archived-report-survives-restart",
			prepare: func(t *testing.T, e *durableEnv) {
				e.runServer(t, e.config(t, "a"), func(s *Server, ts *httptest.Server) {
					st, code := submit(t, ts, e.spec)
					if code != http.StatusCreated {
						t.Fatalf("submit = %d", code)
					}
					e.jobID = st.ID
					waitDone(t, s, st.ID)
					raw, code := getReport(t, ts, st.ID)
					if code != http.StatusOK {
						t.Fatalf("report = %d", code)
					}
					e.report = raw
				})
			},
			check: func(t *testing.T, e *durableEnv, s *Server, ts *httptest.Server) {
				st, code := submit(t, ts, e.spec)
				if code != http.StatusCreated {
					t.Fatalf("resubmit = %d", code)
				}
				if !st.FromCache {
					t.Error("resubmission after restart not served from archive")
				}
				raw, code := getReport(t, ts, st.ID)
				if code != http.StatusOK {
					t.Fatalf("report after restart = %d", code)
				}
				if string(raw) != string(e.report) {
					t.Error("archived report bytes changed across restart")
				}
				// The old process's job URL still answers, via the journal.
				resp, err := http.Get(ts.URL + "/v1/jobs/" + e.jobID)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("pre-restart job URL = %d", resp.StatusCode)
				}
				var old Status
				if err := json.NewDecoder(resp.Body).Decode(&old); err != nil {
					t.Fatal(err)
				}
				if old.State != StateDone || !old.HasReport {
					t.Errorf("pre-restart job status = %+v, want done with report", old)
				}
			},
		},
		{
			// Crash before the first attempt: only a submitted record exists.
			// The restarted replica must find it, run it, and finish it.
			name: "recover-unstarted-job",
			prepare: func(t *testing.T, e *durableEnv) {
				st := e.openStore(t)
				rec := jobstore.Record{
					Kind: jobstore.RecordSubmitted, Time: time.Now(),
					ID: "job-dead-1", Client: "cli", Spec: mustMarshal(t, e.spec),
				}
				if err := st.Create(e.key, rec); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, e *durableEnv, s *Server, ts *httptest.Server) {
				j := waitDone(t, s, "job-dead-1")
				if st := j.Status(); st.State != StateDone || !st.Recovered {
					t.Errorf("recovered job status = %+v, want done and recovered", st)
				}
				if got := s.Stats().Recovered; got != 1 {
					t.Errorf("recovered counter = %d, want 1", got)
				}
				if _, code := getReport(t, ts, "job-dead-1"); code != http.StatusOK {
					t.Errorf("recovered job report = %d", code)
				}
				assertJournalInvariants(t, e.openStore(t), e.key, "done")
			},
		},
		{
			// Crash mid-run: the journal has a started record and points from
			// the dead owner, whose lease has expired. The survivor steals
			// the lease, re-runs with a higher fence, and preserves the
			// attempt history.
			name: "requeue-midrun-job-from-dead-peer",
			prepare: func(t *testing.T, e *durableEnv) {
				st := e.openStore(t)
				sub := jobstore.Record{
					Kind: jobstore.RecordSubmitted, Time: time.Now(),
					ID: "job-dead-2", Client: "cli", Spec: mustMarshal(t, e.spec),
				}
				if err := st.Create(e.key, sub); err != nil {
					t.Fatal(err)
				}
				lease, _, err := st.Claim(e.key, "dead", 10*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				started := jobstore.Record{
					Kind: jobstore.RecordStarted, Time: time.Now(),
					Owner: "dead", Fence: lease.Gen, Attempt: 1,
				}
				if err := st.Append(e.key, started, true); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					pt := jobstore.Record{
						Kind: jobstore.RecordPoint, Time: time.Now(),
						Point: mustMarshal(t, sim.PointEvent{Done: i + 1, Total: 4}),
					}
					if err := st.Append(e.key, pt, false); err != nil {
						t.Fatal(err)
					}
				}
				// Let the dead owner's lease expire so it is stealable.
				time.Sleep(20 * time.Millisecond)
			},
			check: func(t *testing.T, e *durableEnv, s *Server, ts *httptest.Server) {
				j := waitDone(t, s, "job-dead-2")
				st := j.Status()
				if st.State != StateDone || !st.Recovered {
					t.Errorf("requeued job status = %+v, want done and recovered", st)
				}
				if st.Attempts < 2 {
					t.Errorf("attempts = %d, want >= 2 (history preserved plus the re-run)", st.Attempts)
				}
				stats := s.Stats()
				if stats.Requeued != 1 || stats.LeasesStolen != 1 {
					t.Errorf("requeued/stolen = %d/%d, want 1/1", stats.Requeued, stats.LeasesStolen)
				}
				assertJournalInvariants(t, e.openStore(t), e.key, "done")
			},
		},
		{
			// Crash after the archive write but before the terminal record:
			// the result exists, so recovery must close the journal from the
			// archive without burning a re-simulation.
			name: "recover-after-archive-without-rerun",
			prepare: func(t *testing.T, e *durableEnv) {
				// Populate the archive with a storeless server run.
				cfg := Config{
					Workers: 2, JobWorkers: 1,
					Cache: simcache.NewStore(simcache.Options{Dir: e.cacheDir}),
				}
				e.runServer(t, cfg, func(s *Server, ts *httptest.Server) {
					st, _ := submit(t, ts, e.spec)
					waitDone(t, s, st.ID)
					e.report, _ = getReport(t, ts, st.ID)
				})
				// Journal as a dead owner that crashed mid-terminal-write.
				st := e.openStore(t)
				sub := jobstore.Record{
					Kind: jobstore.RecordSubmitted, Time: time.Now(),
					ID: "job-dead-3", Client: "cli", Spec: mustMarshal(t, e.spec),
				}
				if err := st.Create(e.key, sub); err != nil {
					t.Fatal(err)
				}
				lease, _, err := st.Claim(e.key, "dead", 10*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				started := jobstore.Record{
					Kind: jobstore.RecordStarted, Time: time.Now(),
					Owner: "dead", Fence: lease.Gen, Attempt: 1,
				}
				if err := st.Append(e.key, started, true); err != nil {
					t.Fatal(err)
				}
				time.Sleep(20 * time.Millisecond)
			},
			check: func(t *testing.T, e *durableEnv, s *Server, ts *httptest.Server) {
				j := waitDone(t, s, "job-dead-3")
				st := j.Status()
				if st.State != StateDone || !st.FromCache {
					t.Errorf("status = %+v, want done straight from the archive", st)
				}
				raw, code := getReport(t, ts, "job-dead-3")
				if code != http.StatusOK || string(raw) != string(e.report) {
					t.Errorf("report code=%d identical=%v", code, string(raw) == string(e.report))
				}
				if probe, ok := s.cfg.Probe.(*tickCounter); ok && probe.ticks.Load() != 0 {
					t.Errorf("recovery re-simulated: %d engine ticks, want 0", probe.ticks.Load())
				}
				info, ok, err := s.cfg.Store.Job(e.key, false)
				if err != nil || !ok || info.State != "done" {
					t.Errorf("journal after recovery: ok=%v err=%v state=%q, want done", ok, err, info.State)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newDurableEnv(t)
			tc.prepare(t, e)
			cfg := e.config(t, "b")
			cfg.Probe = &tickCounter{}
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
			tc.check(t, e, s, ts)
		})
	}
}

// TestTwoReplicasSharedStore runs two live servers against one directory:
// a duplicate submission lands on the replica already running the job, the
// peer's job is visible fleet-wide, and after completion either replica
// serves the report and the replayed stream.
func TestTwoReplicasSharedStore(t *testing.T) {
	e := newDurableEnv(t)
	gate := newGateProbe()
	cfgA := e.config(t, "a")
	cfgA.Probe = gate
	a := NewServer(cfgA)
	tsA := httptest.NewServer(a.Handler())
	t.Cleanup(func() {
		tsA.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := a.Shutdown(ctx); err != nil {
			t.Errorf("shutdown a: %v", err)
		}
	})

	stA, code := submit(t, tsA, e.spec)
	if code != http.StatusCreated {
		t.Fatalf("submit to a = %d", code)
	}
	select {
	case <-gate.started:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started on a")
	}

	// Replica b joins while a is mid-job; its startup recovery must leave
	// a's live-leased job alone.
	b := NewServer(e.config(t, "b"))
	tsB := httptest.NewServer(b.Handler())
	t.Cleanup(func() {
		tsB.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := b.Shutdown(ctx); err != nil {
			t.Errorf("shutdown b: %v", err)
		}
	})
	if _, local := b.Job(stA.ID); local {
		t.Fatal("replica b adopted a job whose owner is alive")
	}

	// Duplicate submission on b: no second execution, just a's job back.
	stB, code := submit(t, tsB, e.spec)
	if code != http.StatusOK {
		t.Fatalf("duplicate submit to b = %d, want 200 (peer owns it)", code)
	}
	if stB.ID != stA.ID {
		t.Errorf("peer submission id = %q, want a's %q", stB.ID, stA.ID)
	}
	if stB.Replica != "a" {
		t.Errorf("peer submission replica = %q, want \"a\"", stB.Replica)
	}
	// The API surface behind that 200: Submit returns *RemoteOwnedError
	// naming the owner, and the job renders as its status JSON.
	if _, _, err := b.Submit(e.spec, "cli"); err == nil {
		t.Error("direct submit on non-owner did not error")
	} else {
		var remote *RemoteOwnedError
		if !errors.As(err, &remote) || remote.Owner != "a" || remote.Error() == "" {
			t.Errorf("submit error = %v, want RemoteOwnedError owned by a", err)
		}
	}
	if jA, ok := a.Job(stA.ID); !ok || jA.Key() != e.key {
		t.Errorf("job key = %q, want %q", jA.Key(), e.key)
	} else if raw, err := json.Marshal(jA); err != nil || !bytes.Contains(raw, []byte(stA.ID)) {
		t.Errorf("job JSON = %s (err %v), want status carrying its id", raw, err)
	}

	// Fleet-wide listing on b includes a's job exactly once.
	resp, err := http.Get(tsB.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listed []Status
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	seen := 0
	for _, st := range listed {
		if st.Key == e.key {
			seen++
		}
	}
	if seen != 1 {
		t.Errorf("b lists a's job %d times, want 1", seen)
	}

	// Only the owning replica may cancel or stream a live job.
	req, _ := http.NewRequest(http.MethodDelete, tsB.URL+"/v1/jobs/"+stA.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("cancel on non-owner = %d, want 409", resp.StatusCode)
		}
	}
	if resp, err := http.Get(tsB.URL + "/v1/jobs/" + stA.ID + "/events"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("live stream on non-owner = %d, want 409", resp.StatusCode)
		}
	}
	// No artifact exists yet, so the non-owner can only point at the owner.
	for _, path := range []string{"/report", "/tables"} {
		if resp, err := http.Get(tsB.URL + "/v1/jobs/" + stA.ID + path); err != nil {
			t.Fatal(err)
		} else {
			resp.Body.Close()
			if resp.StatusCode != http.StatusConflict {
				t.Errorf("%s of running job on non-owner = %d, want 409", path, resp.StatusCode)
			}
		}
	}

	close(gate.release)
	waitDone(t, a, stA.ID)

	rawA, code := getReport(t, tsA, stA.ID)
	if code != http.StatusOK {
		t.Fatalf("report from a = %d", code)
	}
	// b learns that the job finished from the journal's terminal record,
	// which a appends after closing Done: until it lands b answers 409.
	waitTerminalRecord(t, e.openStore(t), e.key)
	rawB, code := getReport(t, tsB, stA.ID)
	if code != http.StatusOK {
		t.Fatalf("report from b = %d", code)
	}
	if string(rawA) != string(rawB) {
		t.Error("replicas disagree on the report bytes")
	}
	// Once archived, the non-owner serves the tables too.
	if resp, err := http.Get(tsB.URL + "/v1/jobs/" + stA.ID + "/tables"); err != nil {
		t.Fatal(err)
	} else {
		tables, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(tables) == 0 {
			t.Errorf("tables from non-owner = %d (%d bytes), want 200 with content", resp.StatusCode, len(tables))
		}
	}

	// The journal replay on b reconstructs the finished stream: every
	// point, then a done event — how a client that lost its SSE connection
	// to a crashed replica catches up from a survivor.
	resp, err = http.Get(tsB.URL + "/v1/jobs/" + stA.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("terminal stream on b = %d", resp.StatusCode)
	}
	points := bytes.Count(body, []byte("event: point"))
	if points != 4 {
		t.Errorf("replayed stream has %d points, want 4", points)
	}
	if !bytes.Contains(body, []byte("event: done")) {
		t.Error("replayed stream missing done event")
	}

	assertJournalInvariants(t, e.openStore(t), e.key, "done")
	if stolen := a.Stats().LeasesStolen + b.Stats().LeasesStolen; stolen != 0 {
		t.Errorf("leases stolen = %d, want 0 (nobody died)", stolen)
	}
}
