package serve

// Durability edge coverage beyond the restart matrix: the periodic orphan
// sweep, spec failures reaching the journal, and the fencing gate standing
// a replica down after its lease is lost mid-run.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"turnmodel/internal/jobstore"
)

// startDurableServer runs a server over HTTP with cleanup registered.
func startDurableServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
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

// TestSweepAdoptsOrphan covers the periodic recovery path: a job journaled
// by a dead owner AFTER this replica already started (so the startup scan
// never saw it) must be picked up by the lease sweep, not wait for a
// restart.
func TestSweepAdoptsOrphan(t *testing.T) {
	e := newDurableEnv(t)
	cfg := e.config(t, "b")
	cfg.LeaseTTL = 200 * time.Millisecond
	cfg.SweepInterval = 25 * time.Millisecond
	s, ts := startDurableServer(t, cfg)

	// The orphan appears only now: submitted by a peer that died instantly,
	// its lease already expired.
	st := e.openStore(t)
	rec := jobstore.Record{
		Kind: jobstore.RecordSubmitted, Time: time.Now(),
		ID: "job-dead-9", Client: "cli", Spec: mustMarshal(t, e.spec),
	}
	if err := st.Create(e.key, rec); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Claim(e.key, "dead", time.Millisecond); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, ok := s.Job("job-dead-9"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never adopted the orphan")
		}
		time.Sleep(10 * time.Millisecond)
	}
	j := waitDone(t, s, "job-dead-9")
	if got := j.Status(); got.State != StateDone || !got.Recovered {
		t.Errorf("adopted job status = %+v, want done and recovered", got)
	}
	stats := s.Stats()
	if stats.Requeued != 1 || stats.LeasesStolen != 1 {
		t.Errorf("requeued/stolen = %d/%d, want 1/1", stats.Requeued, stats.LeasesStolen)
	}
	assertJournalInvariants(t, e.openStore(t), e.key, "done")

	// The adopted job serves over HTTP like any local one — status and
	// report straight from the replica that rescued it.
	resp, err := http.Get(ts.URL + "/v1/jobs/job-dead-9")
	if err != nil {
		t.Fatal(err)
	}
	var got Status
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || got.State != StateDone {
		t.Errorf("status over HTTP: err=%v state=%q, want done", err, got.State)
	}
	if _, code := getReport(t, ts, "job-dead-9"); code != http.StatusOK {
		t.Errorf("report = %d", code)
	}
}

// TestSpecFailureJournaled submits a spec that passes admission but cannot
// build a runner (an unknown algorithm is only caught at plan time): the
// failure must be terminal with ClassSpec — never retried — and the
// journal must carry the same verdict so no replica ever requeues it.
func TestSpecFailureJournaled(t *testing.T) {
	e := newDurableEnv(t)
	s, _ := startDurableServer(t, e.config(t, "b"))

	spec := e.spec
	spec.Algorithms = []string{"no-such-algorithm"}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := s.Submit(spec, "cli")
	if err != nil {
		t.Fatal(err)
	}
	jj := waitDone(t, s, j.ID())
	st := jj.Status()
	if st.State != StateFailed || st.ErrorClass != ClassSpec {
		t.Fatalf("status = %+v, want failed with spec class", st)
	}
	if st.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (spec failures never retry)", st.Attempts)
	}
	assertJournalInvariants(t, e.openStore(t), key, "failed")
	recs := journalRecords(t, e.openStore(t), key)
	last := recs[len(recs)-1]
	if last.Kind != jobstore.RecordTerminal || last.Class != string(ClassSpec) {
		t.Errorf("terminal record = %+v, want spec-class failure", last)
	}
}

// TestSanitizeReplicaID pins the identity rules: empty defaults to
// hostname-pid, and anything unsafe for job IDs, URLs or lease filenames
// is mapped to '-'.
func TestSanitizeReplicaID(t *testing.T) {
	if got := sanitizeReplicaID(""); got == "" {
		t.Error("empty replica id not defaulted")
	}
	if got := sanitizeReplicaID("node 3/rack:7"); got != "node-3-rack-7" {
		t.Errorf("sanitized id = %q, want node-3-rack-7", got)
	}
	if got := sanitizeReplicaID("ok-id_9.z"); got != "ok-id_9.z" {
		t.Errorf("safe id mangled to %q", got)
	}
}

// TestFenceLostSuppressesTerminal arms the fencing gate: a replica whose
// lease vanishes mid-run (it stalled past the TTL and the fleet moved on)
// must NOT write a terminal record — the new owner's verdict is the only
// one — and must count the rejection. The local client still gets its
// result; durability only decides who writes history.
func TestFenceLostSuppressesTerminal(t *testing.T) {
	e := newDurableEnv(t)
	gate := newGateProbe()
	cfg := e.config(t, "b")
	cfg.LeaseTTL = 30 * time.Millisecond
	cfg.SweepInterval = time.Hour // isolate renewal; no sweep interference
	cfg.Probe = gate
	s, _ := startDurableServer(t, cfg)

	j, _, err := s.Submit(e.spec, "cli")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.started:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started")
	}

	// Lose the lease while stalled, the way a peer's takeover ends: Release
	// of the job's current lease through a second Store on the same
	// directory. Release holds the .claim lock, so a renewal in flight either
	// lands before it (and is released) or after it (and comes back ErrLost);
	// removing the file behind the lock's back let such a renewal write the
	// lease back, and the fence was never lost.
	peer := e.openStore(t)
	held, ok, err := peer.Holder(e.key)
	if err != nil || !ok {
		t.Fatalf("no lease to take away: ok=%v err=%v", ok, err)
	}
	if err := peer.Release(held); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !j.fenceWasLost() {
		if time.Now().After(deadline) {
			t.Fatal("renewal never noticed the lost lease")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(gate.release)
	jj := waitDone(t, s, j.ID())
	if st := jj.Status(); st.State != StateDone {
		t.Errorf("local job state = %q, want done (the client still gets its result)", st.State)
	}
	if got := s.Stats().FencingRejected; got != 1 {
		t.Errorf("fencing_rejected = %d, want 1", got)
	}
	for _, rec := range journalRecords(t, e.openStore(t), e.key) {
		if rec.Kind == jobstore.RecordTerminal {
			t.Fatalf("fenced-out replica wrote a terminal record: %+v", rec)
		}
	}
}
