package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"turnmodel/internal/serve"
	"turnmodel/internal/sim"
)

// The serve-mixed workload's constants. The rate was calibrated once on
// the reference container (2 cores, go1.24) so that turnserved's single
// job worker is 40-60% busy, and is never derived at run time: a fixed
// offered load is what makes two commits comparable.
const (
	// serveRate is the offered load in jobs per second.
	serveRate = 24.0
	// serveConns bounds the jobs in flight: two keep-alive connections.
	serveConns = 2
	// serveLimitMs is the latency limit on the fresh-job tail percentile
	// that the rate ladder judges each rung by.
	serveLimitMs = 250.0
	// genLateLimitMs invalidates a run whose generator ran late: past it
	// the latencies measure the generator, not the service.
	genLateLimitMs = 5.0
	// rungShare sizes each extra ladder rung relative to the main run.
	rungShare = 0.4
	// serveSetupRepeats is how often a run sets a server up; setup_s is
	// the median and the last server is the one measured.
	serveSetupRepeats = 3
)

var (
	serveWindows = windows{Warmup: 2000, Measure: 6000}
	// serveRates is the pool each job takes its two injection rates from:
	// below saturation on a 16x16 mesh, so jobs cost about the same. Four
	// rates make 6 pairs, times figure13's 4 algorithms 24 combinations:
	// the 120 fresh jobs of a ten-second run are each of them five times.
	serveRates = []float64{0.03, 0.04, 0.05, 0.06}
	// ladderMultipliers are the rungs of the rate ladder.
	ladderMultipliers = []float64{1, 2, 4}
)

type jobKind int

const (
	kindFresh      jobKind = iota // never seen: crosses every service layer
	kindHalfShared                // one of its two points is in the point cache
	kindWarm                      // exact resubmit of a finished spec
)

var kindNames = [...]string{"fresh", "half-shared", "warm"}

// plannedJob is one generated job: the spec to submit and, for the kinds
// that reuse earlier work, the spec set-up runs beforehand.
type plannedJob struct {
	Kind    jobKind
	Spec    serve.JobSpec
	Body    []byte
	Preload *serve.JobSpec
}

// planJobs generates n jobs from the seed: half fresh, a quarter
// half-shared, a quarter exact resubmits, interleaved in a fixed order
// (fresh, half-shared, fresh, resubmit) so that which kinds meet in the
// server's queue is the same on every seed. Every job is one figure13
// algorithm at two rates; base keeps the seeds — and so the content
// addresses — of different job sets apart.
func planJobs(rng *rand.Rand, n int, base int64) []plannedJob {
	spec13, _ := sim.FigureByID("figure13")
	// Every (algorithm, pair of rates) combination, in an order drawn from
	// the seed. Each kind of job walks the list round and round, so that a
	// run's jobs cost the same in total on every seed and only their order,
	// their arrival times and their simulation seeds differ.
	type combo struct {
		alg    string
		r1, r2 float64
	}
	var combos []combo
	for _, alg := range spec13.Algorithms {
		for i, r1 := range serveRates {
			for _, r2 := range serveRates[i+1:] {
				combos = append(combos, combo{alg, r1, r2})
			}
		}
	}
	rng.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
	var drawn [len(kindNames)]int

	jobs := make([]plannedJob, n)
	for i := range jobs {
		kind := kindFresh
		switch {
		case i%4 == 1:
			kind = kindHalfShared
		case i%4 == 3:
			kind = kindWarm
		}
		c := combos[drawn[kind]%len(combos)]
		drawn[kind]++
		spec := serve.JobSpec{
			Figures:       []string{"figure13"},
			Algorithms:    []string{c.alg},
			Rates:         []float64{c.r1, c.r2},
			WarmupCycles:  serveWindows.Warmup,
			MeasureCycles: serveWindows.Measure,
			Seed:          base + 2*int64(i),
		}
		job := plannedJob{Kind: kind, Spec: spec}
		switch kind {
		case kindWarm:
			pre := spec
			job.Preload = &pre
		case kindHalfShared:
			// The same algorithm, seed and first rate: the preload leaves
			// exactly the job's first point in the point cache.
			pre := spec
			pre.Rates = spec.Rates[:1]
			job.Preload = &pre
		}
		body, err := json.Marshal(spec)
		if err != nil {
			panic(err) // a JobSpec is plain data
		}
		job.Body = body
		jobs[i] = job
	}
	return jobs
}

// server is one turnserved child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr *os.File
	drain  chan struct{}
}

// buildServer compiles cmd/turnserved into the checkout's build directory.
// Compilation happens before any clock starts.
func buildServer(ctx context.Context, cfg runConfig) (string, error) {
	bin := filepath.Join(cfg.Root, ".bench_build", "bin", "turnserved")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/turnserved")
	cmd.Dir = cfg.Root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building turnserved: %v\n%s", err, out)
	}
	return bin, nil
}

// startServer launches turnserved on an ephemeral port with the journal,
// leases and disk cache all on, and waits until /readyz answers.
func startServer(ctx context.Context, bin, cacheDir, logPath string) (*server, error) {
	stderr, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-cachedir", cacheDir,
		"-jobs", "1", "-workers", "1", "-replica-id", "bench")
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		stderr.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		stderr.Close()
		return nil, err
	}
	s := &server{cmd: cmd, stderr: stderr, drain: make(chan struct{})}
	rd := bufio.NewReader(stdout)
	line, err := rd.ReadString('\n')
	const prefix = "turnserved: listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		s.stop()
		return nil, fmt.Errorf("turnserved did not announce its address (got %q, %v)", line, err)
	}
	s.base = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	go func() {
		io.Copy(io.Discard, rd)
		close(s.drain)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("turnserved not ready after 10s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the server to drain and waits for it to exit.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			s.cmd.Process.Kill()
		}
	}()
	if s.base != "" {
		<-s.drain // Wait must not close the pipe under the reader
	}
	s.cmd.Wait()
	close(done)
	s.stderr.Close()
}

// newConn returns an HTTP client that holds one keep-alive connection.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// jobOutcome is what the client observed of one job.
type jobOutcome struct {
	Err                           string
	Status                        int // of the POST
	Ack, FirstPoint, Done, Report time.Time
	SimMs                         float64 // sum of wall_ms over the job's point events
	SimCycles                     int64   // cycles of the points actually simulated
	Points, Cached                int
	ReportBytes                   []byte
}

// doJob carries one job through the service as a client does: submit,
// follow the event stream to done, fetch the report.
func doJob(ctx context.Context, c *http.Client, base string, body []byte) (o jobOutcome) {
	fail := func(format string, args ...any) jobOutcome {
		o.Err = fmt.Sprintf(format, args...)
		return o
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return fail("%v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-Id", "bench")
	resp, err := c.Do(req)
	if err != nil {
		return fail("submit: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	o.Ack = time.Now()
	o.Status = resp.StatusCode
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fail("submit: status %d", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if loc == "" {
		return fail("submit: no Location")
	}

	resp, err = get(ctx, c, base+loc+"/events")
	if err != nil {
		return fail("events: %v", err)
	}
	state, err := followEvents(resp.Body, &o)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return fail("events: %v", err)
	}
	if state != "done" {
		return fail("job ended %s", state)
	}

	resp, err = get(ctx, c, base+loc+"/report")
	if err != nil {
		return fail("report: %v", err)
	}
	o.ReportBytes, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.Report = time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fail("report: status %d, %v", resp.StatusCode, err)
	}
	return o
}

func get(ctx context.Context, c *http.Client, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return c.Do(req)
}

// followEvents reads the job's server-sent events up to "done" and returns
// the terminal state, recording point arrivals in o.
func followEvents(body io.Reader, o *jobOutcome) (string, error) {
	rd := bufio.NewReader(body)
	event := ""
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return "", fmt.Errorf("stream ended before done: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data := line[len("data: "):]
			switch event {
			case "point":
				var ev sim.PointEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					return "", fmt.Errorf("point event: %w", err)
				}
				if o.Points == 0 {
					o.FirstPoint = time.Now()
				}
				o.Points++
				o.SimMs += ev.WallMillis
				if ev.Cached {
					o.Cached++
				} else {
					o.SimCycles += serveWindows.Warmup + serveWindows.Measure
				}
			case "retry":
				o.Points, o.Cached, o.SimMs, o.SimCycles = 0, 0, 0, 0
			case "done":
				o.Done = time.Now()
				var st struct {
					State string `json:"state"`
				}
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					return "", fmt.Errorf("done event: %w", err)
				}
				return st.State, nil
			}
		}
	}
}

// checkReport verifies one delivered report: it must round-trip through
// sim.ReadReport and describe the job that was submitted.
func checkReport(raw []byte, spec serve.JobSpec) error {
	rep, err := sim.ReadReport(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	if len(rep.Figures) != 1 || len(rep.Figures[0].Series) != 1 {
		return fmt.Errorf("report has %d figures", len(rep.Figures))
	}
	series := rep.Figures[0].Series[0]
	if series.Algorithm != spec.Algorithms[0] || len(series.Points) != len(spec.Rates) {
		return fmt.Errorf("report is for %s with %d points, submitted %s with %d", series.Algorithm, len(series.Points), spec.Algorithms[0], len(spec.Rates))
	}
	for i, p := range series.Points {
		if p.InjectionRate != spec.Rates[i] || p.Delivered <= 0 {
			return fmt.Errorf("point %d: rate %g, %d packets delivered", i, p.InjectionRate, p.Delivered)
		}
	}
	return nil
}

// preload runs every spec the jobs depend on to completion and returns the
// report bytes first delivered for each warm job, keyed by job index.
func preload(ctx context.Context, c *http.Client, base string, jobs []plannedJob) (map[int][]byte, error) {
	first := map[int][]byte{}
	for i, job := range jobs {
		if job.Preload == nil {
			continue
		}
		body, err := json.Marshal(job.Preload)
		if err != nil {
			return nil, err
		}
		o := doJob(ctx, c, base, body)
		if o.Err != "" {
			return nil, fmt.Errorf("preload: %s", o.Err)
		}
		if job.Kind == kindWarm {
			first[i] = o.ReportBytes
		}
	}
	return first, nil
}

// loadResult is one open-loop run at one rate.
type loadResult struct {
	Jobs     []plannedJob
	Timings  []jobTiming
	Outcomes []jobOutcome
	Start    time.Time
	WallS    float64
	Failed   int
	Failures []string
}

// latencyMs is the job's latency from the moment it was due: to the done
// event for jobs that simulate, to the report bytes for exact resubmits.
func (l *loadResult) latencyMs(i int) float64 {
	end := l.Outcomes[i].Done
	if l.Jobs[i].Kind == kindWarm {
		end = l.Outcomes[i].Report
	}
	return float64(end.Sub(l.Start.Add(l.Timings[i].Due))) / float64(time.Millisecond)
}

// latencies lists the latencies of one kind's successful jobs.
func (l *loadResult) latencies(kind jobKind) []float64 {
	var out []float64
	for i, job := range l.Jobs {
		if job.Kind == kind && l.Outcomes[i].Err == "" {
			out = append(out, l.latencyMs(i))
		}
	}
	return out
}

// driveLoad offers the jobs open loop at the rate for the span and checks
// every delivery.
func driveLoad(ctx context.Context, base string, conns []*http.Client, jobs []plannedJob, firstDelivery map[int][]byte, rng *rand.Rand, span time.Duration) *loadResult {
	l := &loadResult{Jobs: jobs, Outcomes: make([]jobOutcome, len(jobs))}
	schedule := arrivalSchedule(rng, len(jobs), span)
	l.Start = time.Now()
	l.Timings = openLoop(realClock{ctx}, schedule, len(conns), func(conn, i int) {
		l.Outcomes[i] = doJob(ctx, conns[conn], base, jobs[i].Body)
	})
	l.WallS = time.Since(l.Start).Seconds()
	for i, job := range jobs {
		o := &l.Outcomes[i]
		if o.Err == "" {
			if err := checkReport(o.ReportBytes, job.Spec); err != nil {
				o.Err = "report: " + err.Error()
			} else if job.Kind == kindWarm && !bytes.Equal(o.ReportBytes, firstDelivery[i]) {
				o.Err = "resubmit's report differs from the first delivery"
			}
		}
		if o.Err != "" {
			l.Failed++
			if len(l.Failures) < 5 {
				l.Failures = append(l.Failures, fmt.Sprintf("%s job %d: %s", kindNames[job.Kind], i, o.Err))
			}
		}
	}
	return l
}

// ladderRung is the rate ladder's verdict on one offered rate.
type ladderRung struct {
	Rate           float64 `json:"rate_jobs_per_s"`
	P50Ms          float64 `json:"fresh_p50_ms"`
	TailPercentile float64 `json:"tail_percentile"`
	TailMs         float64 `json:"fresh_tail_ms"`
	Samples        int     `json:"samples"`
	BacklogEnd     int     `json:"backlog_at_end"`
	Failed         int     `json:"failed"`
	UnderLimit     bool    `json:"under_limit"`
}

func judgeRung(rate float64, l *loadResult) ladderRung {
	fresh := l.latencies(kindFresh)
	g := ladderRung{Rate: rate, Samples: len(fresh), BacklogEnd: backlogAtEnd(l.Timings), Failed: l.Failed}
	g.P50Ms, _ = percentile(fresh, 50)
	g.TailPercentile = tailPercentile(len(fresh))
	g.TailMs, _ = percentile(fresh, g.TailPercentile)
	// A backlog no deeper than the connections is jobs in flight, not a
	// queue that grows.
	g.UnderLimit = l.Failed == 0 && g.TailMs <= serveLimitMs && g.BacklogEnd <= 2*serveConns
	return g
}

// serverStats is the part of /v1/stats the ledger reports.
type serverStats struct {
	Cache struct {
		MemHits  int64 `json:"mem_hits"`
		DiskHits int64 `json:"disk_hits"`
		Misses   int64 `json:"misses"`
	} `json:"cache"`
	Scheduler struct {
		Retries      int64 `json:"retries"`
		RejectedFull int64 `json:"rejected_queue_full"`
		RejectedRate int64 `json:"rejected_rate_limited"`
	} `json:"scheduler"`
}

func fetchStats(base string) (serverStats, error) {
	var st serverStats
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func jobCount(rate, seconds float64) int {
	n := int(rate*seconds + 0.5)
	if n < 4 {
		n = 4
	}
	return n
}

// runServe measures the serve-mixed workload.
func runServe(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := newRunResult(cfg)
	bin, err := buildServer(ctx, cfg)
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(cfg.Root, ".bench_build", "tmp", fmt.Sprintf("serve-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	logDir := filepath.Join(cfg.RunDir, "log")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(logDir, "serve-mixed.turnserved.stderr")
	os.Remove(logPath)

	rng := rand.New(rand.NewSource(cfg.Seed))
	span := time.Duration(cfg.Seconds * float64(time.Second))
	jobs := planJobs(rng, jobCount(serveRate, cfg.Seconds), cfg.Seed*1_000_000)
	conns := make([]*http.Client, serveConns)
	for i := range conns {
		conns[i] = newConn()
	}

	// Set-up, repeated on a fresh server and cache directory each time;
	// the last server is the one measured.
	var (
		srv           *server
		setups        []float64
		firstDelivery map[int][]byte
	)
	for i := 0; i < serveSetupRepeats; i++ {
		if srv != nil {
			srv.stop()
		}
		start := time.Now()
		srv, err = startServer(ctx, bin, filepath.Join(tmp, fmt.Sprintf("cache%d", i)), logPath)
		if err != nil {
			return nil, err
		}
		if firstDelivery, err = preload(ctx, conns[0], srv.base, jobs); err != nil {
			srv.stop()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer srv.stop()

	main := driveLoad(ctx, srv.base, conns, jobs, firstDelivery, rng, span)
	stats, err := fetchStats(srv.base)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = len(jobs), main.Failed
	for _, f := range main.Failures {
		res.checkf("FAILED %s", f)
	}
	res.checkf("report round-trip and resubmit byte-identity mismatch: %d of %d jobs", main.Failed, len(jobs))

	ledger, err := clientMetrics(res, cfg, main, setups, stats)
	if err != nil {
		return nil, err
	}
	m := res.Metrics
	if cfg.Trace {
		// The client-side spans above are the timestamps the untraced run
		// takes too, so tracing adds nothing to the measured path.
		m["trace.overhead_frac"] = 0
		res.Ledger = ledger

		res.Ladder = append(res.Ladder, judgeRung(serveRate, main))
		for r, mult := range ladderMultipliers[1:] {
			rate := serveRate * mult
			rungJobs := planJobs(rng, jobCount(rate, rungShare*cfg.Seconds), cfg.Seed*1_000_000+int64(r+1)*100_000)
			rungFirst, err := preload(ctx, conns[0], srv.base, rungJobs)
			if err != nil {
				return nil, err
			}
			rung := driveLoad(ctx, srv.base, conns, rungJobs, rungFirst, rng, time.Duration(rungShare*float64(span)))
			res.Ladder = append(res.Ladder, judgeRung(rate, rung))
			res.Attempted += len(rungJobs)
			res.Failed += rung.Failed
		}
		for _, g := range res.Ladder {
			if g.UnderLimit && g.Rate > m["serve.max_rate_under_limit"] {
				m["serve.max_rate_under_limit"] = g.Rate
			}
		}
		if err := serviceLayerMetrics(tmp, srv.base, main, m); err != nil {
			return nil, err
		}
		if err := writeArtefact(cfg, "event", "serve-mixed.jobs.json", jobRecords(main)); err != nil {
			return nil, err
		}
	}

	if m["max_rss_mb"], err = peakRSSMB(srv.cmd.Process.Pid); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Invalid == ""
	return res, nil
}

// clientMetrics turns what the client observed of the main run into the
// workload's metrics, and returns the ledger of a fresh job's time: where,
// between falling due and done, it went.
func clientMetrics(res *runResult, cfg runConfig, main *loadResult, setups []float64, stats serverStats) ([]spanRow, error) {
	m := res.Metrics
	var (
		fresh                            = main.latencies(kindFresh)
		half                             = main.latencies(kindHalfShared)
		warm                             = main.latencies(kindWarm)
		ack, firstPoint, simMs, overhead []float64
		busyMs, simCycles, simulatedMs   float64
		queueNs, ackNs, runNs, fetchNs   int64
		simNs                            int64
	)
	for i, job := range main.Jobs {
		o := main.Outcomes[i]
		if o.Err != "" {
			continue
		}
		busyMs += o.SimMs
		if o.SimCycles > 0 {
			simCycles += float64(o.SimCycles)
			// Cached points report microseconds; what remains is simulation.
			simulatedMs += o.SimMs
		}
		if job.Kind != kindFresh {
			continue
		}
		issued := main.Start.Add(main.Timings[i].Issued)
		ack = append(ack, float64(o.Ack.Sub(issued))/float64(time.Millisecond))
		firstPoint = append(firstPoint, float64(o.FirstPoint.Sub(issued))/float64(time.Millisecond))
		simMs = append(simMs, o.SimMs)
		overhead = append(overhead, main.latencyMs(i)-o.SimMs)
		queueNs += int64(main.Timings[i].Issued - main.Timings[i].Due)
		ackNs += int64(o.Ack.Sub(issued))
		runNs += int64(o.Done.Sub(o.Ack))
		fetchNs += int64(o.Report.Sub(o.Done))
		simNs += int64(o.SimMs * float64(time.Millisecond))
	}
	if len(fresh) == 0 || simulatedMs == 0 {
		return nil, fmt.Errorf("no fresh job succeeded: %v", main.Failures)
	}
	m["setup_s"] = median(setups)
	res.Samples["setup_s"] = len(setups)
	m["sim_cycles_per_s"] = simCycles / (simulatedMs / 1000)
	m["job_p50_ms"], _ = percentile(fresh, 50)
	p90, beyond := percentile(fresh, 90)
	m["job_p90_ms"] = p90
	res.Samples["job_p50_ms"], res.Samples["job_p90_ms"] = len(fresh), len(fresh)
	if beyond < minBeyond {
		res.checkf("job_p90_ms has only %d samples beyond it (want %d)", beyond, minBeyond)
	}

	late := generatorLatenessMs(main.Timings)
	m["gen.late_p95_ms"], _ = percentile(late, 95)
	res.Samples["gen.late_p95_ms"] = len(late)
	backlog := backlogAtEnd(main.Timings)
	res.checkf("generator: p95 lateness %.3f ms over %d on-time jobs (limit %.0f ms), backlog at end %d", m["gen.late_p95_ms"], len(late), genLateLimitMs, backlog)
	if m["gen.late_p95_ms"] >= genLateLimitMs {
		res.Invalid = fmt.Sprintf("generator p95 lateness %.3f ms is not under %.0f ms", m["gen.late_p95_ms"], genLateLimitMs)
	}
	m["serve.worker_busy_frac"] = busyMs / 1000 / main.WallS
	res.checkf("offered %.1f jobs/s for %.1f s over %d connections: %d fresh, %d half-shared, %d resubmits; job worker %.0f%% busy",
		serveRate, cfg.Seconds, serveConns, len(fresh), len(half), len(warm), 100*m["serve.worker_busy_frac"])

	m["serve.ack_p50_ms"] = median(ack)
	m["serve.first_point_p50_ms"] = median(firstPoint)
	m["serve.sim_ms_p50"] = median(simMs)
	m["serve.overhead_p50_ms"] = median(overhead)
	m["serve.halfshared_p50_ms"] = median(half)
	m["serve.warm_p50_ms"] = median(warm)
	m["serve.warm_p80_ms"], _ = percentile(warm, 80)
	for _, name := range []string{"serve.ack_p50_ms", "serve.first_point_p50_ms", "serve.sim_ms_p50", "serve.overhead_p50_ms"} {
		res.Samples[name] = len(fresh)
	}
	res.Samples["serve.halfshared_p50_ms"] = len(half)
	res.Samples["serve.warm_p50_ms"], res.Samples["serve.warm_p80_ms"] = len(warm), len(warm)
	m["serve.rejected_503"] = float64(stats.Scheduler.RejectedFull)
	m["serve.rejected_429"] = float64(stats.Scheduler.RejectedRate)
	m["serve.retries"] = float64(stats.Scheduler.Retries)
	m["simcache.mem_hits"] = float64(stats.Cache.MemHits)
	m["simcache.disk_hits"] = float64(stats.Cache.DiskHits)
	m["simcache.misses"] = float64(stats.Cache.Misses)
	if lookups := stats.Cache.MemHits + stats.Cache.DiskHits + stats.Cache.Misses; lookups > 0 {
		m["simcache.hit_ratio"] = float64(stats.Cache.MemHits+stats.Cache.DiskHits) / float64(lookups)
	}

	jobNs := queueNs + ackNs + runNs
	ledger := []spanRow{
		{Name: "serve.job", Count: int64(len(fresh)), TotalS: float64(jobNs) / 1e9},
		{Name: "gen.queue_wait", Parent: "serve.job", Count: int64(len(fresh)), TotalS: float64(queueNs) / 1e9},
		{Name: "serve.ack", Parent: "serve.job", Count: int64(len(fresh)), TotalS: float64(ackNs) / 1e9},
		{Name: "serve.run", Parent: "serve.job", Count: int64(len(fresh)), TotalS: float64(runNs) / 1e9},
		{Name: "serve.sim", Parent: "serve.run", Count: int64(len(fresh)), TotalS: float64(simNs) / 1e9},
		{Name: "serve.report_fetch", Count: int64(len(fresh)), TotalS: float64(fetchNs) / 1e9},
	}
	fillLedger(ledger)
	return ledger, nil
}

// jobRecord is one line of the traced serve run's event file: the spans
// the client observed of one job, in ms from the start of the run.
type jobRecord struct {
	Job        int     `json:"job"`
	Kind       string  `json:"kind"`
	DueMs      float64 `json:"due_ms"`
	IssuedMs   float64 `json:"issued_ms"`
	AckMs      float64 `json:"ack_ms"`
	FirstPtMs  float64 `json:"first_point_ms,omitempty"`
	DoneMs     float64 `json:"done_ms"`
	ReportMs   float64 `json:"report_ms"`
	SimMs      float64 `json:"sim_ms"`
	Cached     int     `json:"cached_points"`
	PostStatus int     `json:"post_status"`
	Err        string  `json:"error,omitempty"`
}

func jobRecords(l *loadResult) []jobRecord {
	ms := func(t time.Time) float64 {
		if t.IsZero() {
			return 0
		}
		return float64(t.Sub(l.Start)) / float64(time.Millisecond)
	}
	recs := make([]jobRecord, len(l.Jobs))
	for i, job := range l.Jobs {
		o := l.Outcomes[i]
		recs[i] = jobRecord{
			Job: i, Kind: kindNames[job.Kind],
			DueMs:    float64(l.Timings[i].Due) / float64(time.Millisecond),
			IssuedMs: float64(l.Timings[i].Issued) / float64(time.Millisecond),
			AckMs:    ms(o.Ack), FirstPtMs: ms(o.FirstPoint), DoneMs: ms(o.Done), ReportMs: ms(o.Report),
			SimMs: o.SimMs, Cached: o.Cached, PostStatus: o.Status, Err: o.Err,
		}
	}
	return recs
}

func describeServe(cfg runConfig) map[string]any {
	return map[string]any{
		"rate_jobs_per_s":   serveRate,
		"connections":       serveConns,
		"jobs":              jobCount(serveRate, cfg.Seconds),
		"mix":               "1/2 fresh, 1/4 half-shared, 1/4 exact resubmit",
		"job":               "one figure13 algorithm x 2 rates",
		"warmup_cycles":     serveWindows.Warmup,
		"measure_cycles":    serveWindows.Measure,
		"rate_pool":         serveRates,
		"server_flags":      "-addr 127.0.0.1:0 -cachedir <fresh> -jobs 1 -workers 1 -replica-id bench",
		"setup_repeats":     serveSetupRepeats,
		"latency_limit_ms":  serveLimitMs,
		"gen_late_limit_ms": genLateLimitMs,
		"ladder":            ladderMultipliers,
		"rung_share":        rungShare,
	}
}
