package server

// Resilience integration tests: the daemon is driven over HTTP while
// the internal/fault registry injects deterministic failure schedules
// into the journal, the epoch loop, and the planner. The invariants
// under test are the failure model's contract — an acknowledged job
// is never lost, a failure storm degrades (and is visible on /readyz
// and the metrics), and recovery is automatic once the faults stop.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"corun/internal/fault"
	"corun/internal/journal"
)

// postRaw is postJSON plus the response headers, for Retry-After
// assertions.
func postRaw(t *testing.T, url, body string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

// TestFaultedFsyncLifecycle fails every 3rd fsync under a seeded
// schedule and drives a full job lifecycle through it: the bounded
// retries absorb each injection (the failed commit's records are
// discarded, and the retry's fresh append lands on a non-faulted hit),
// every submission is acknowledged, the breaker never trips, and a
// restart restores every acknowledged job.
func TestFaultedFsyncLifecycle(t *testing.T) {
	dir := t.TempDir()
	reg := fault.NewRegistry()
	s := newTestServer(t, func(c *Config) {
		c.DataDir = dir
		c.Fsync = journal.FsyncAlways
		c.Faults = reg
	})
	// Arm after New: the journal seeds cap/policy records on a fresh
	// dir, and those appends are not part of the schedule under test.
	if err := reg.Arm(fault.Rule{Site: journal.SiteFsync, Kind: fault.KindError, Every: 3, Msg: "disk hiccup"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var acked []string
	for i := 0; i < 6; i++ {
		code, body := postJSON(t, ts.URL+"/v1/jobs", `{"program":"lud"}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d under fsync faults -> %d: %s", i, code, body)
		}
		var j Job
		if err := json.Unmarshal([]byte(body), &j); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, j.ID)
	}
	for _, j := range waitAllTerminal(t, s, len(acked), 60*time.Second) {
		if j.State != JobDone {
			t.Errorf("job %s state %s (%s)", j.ID, j.State, j.Error)
		}
	}

	_, body := get(t, ts.URL+"/metrics")
	injected := metricValue(t, body, `corund_fault_injections_total{site="journal/fsync"}`)
	if injected < 1 {
		t.Errorf("fsync injections %v, want >= 1", injected)
	}
	if hits := metricValue(t, body, `corund_fault_hits_total{site="journal/fsync"}`); hits <= injected {
		t.Errorf("fsync hits %v not above injections %v", hits, injected)
	}
	if v := metricValue(t, body, "corund_journal_retries_total"); v < 1 {
		t.Errorf("journal retries %v, want >= 1", v)
	}
	if v := metricValue(t, body, "corund_journal_dropped_records_total"); v != 0 {
		t.Errorf("dropped records %v, want 0 (retries should absorb every fault)", v)
	}
	if v := metricValue(t, body, "corund_journal_errors_total"); v != 0 {
		t.Errorf("journal errors %v, want 0", v)
	}
	if v := metricValue(t, body, "corund_breaker_trips_total"); v != 0 {
		t.Errorf("breaker trips %v, want 0 (isolated faults must not trip it)", v)
	}
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Errorf("readyz under absorbed faults -> %d, want 200", code)
	}

	// Restart against the same dir: every acknowledged job survives.
	reg.Disarm()
	s.Drain()
	select {
	case <-s.Drained():
	case <-time.After(60 * time.Second):
		t.Fatal("drain stuck")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := newJournalServer(t, dir)
	for _, id := range acked {
		j, ok := s2.Job(id)
		if !ok {
			t.Fatalf("acked job %s lost across restart", id)
		}
		if j.State != JobDone {
			t.Errorf("job %s restored as %s, want done", id, j.State)
		}
	}
}

// TestFsyncStormDegradesAndRecovers is the acceptance scenario: a
// storm of fsync failures outlasts the retries of breakerThreshold
// commits in a row and trips the breaker into degraded mode — visible
// on /readyz, the breaker and shed metrics, and 503 + Retry-After
// responses — and the daemon recovers automatically via half-open
// probes once the injection schedule exhausts. The breaker runs on the
// test's clock, so each cooldown passes when the test advances it, not
// after a sleep. No acknowledged job is lost at any point.
func TestFsyncStormDegradesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	reg := fault.NewRegistry()
	s := newTestServer(t, func(c *Config) {
		c.DataDir = dir
		c.Fsync = journal.FsyncAlways
		c.Faults = reg
	})
	t.Cleanup(func() { s.Close() })
	var clockMu sync.Mutex
	now := time.Now()
	s.brk.SetClock(func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	})
	coolDown := func() {
		clockMu.Lock()
		now = now.Add(breakerCooldown)
		clockMu.Unlock()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One acknowledged job before the storm: it must survive to the
	// end.
	code, body := postJSON(t, ts.URL+"/v1/jobs", `{"program":"hotspot"}`)
	if code != http.StatusAccepted {
		t.Fatalf("pre-storm submit -> %d: %s", code, body)
	}
	var preStorm Job
	if err := json.Unmarshal([]byte(body), &preStorm); err != nil {
		t.Fatal(err)
	}

	// A failed commit spends journalAttempts fsyncs, one per append of
	// its records. The storm fails breakerThreshold commits, then two
	// half-open probes.
	const failedProbes = 2
	const storm = journalAttempts * (breakerThreshold + failedProbes)
	if err := reg.Arm(fault.Rule{Site: journal.SiteFsync, Kind: fault.KindError, Times: storm, Msg: "fsync storm"}); err != nil {
		t.Fatal(err)
	}

	// breakerThreshold consecutive failed commits trip the breaker. Every
	// one of those submissions is refused — never acknowledged-but-
	// undurable.
	for i := 0; i < breakerThreshold; i++ {
		code, hdr, body := postRaw(t, ts.URL+"/v1/jobs", `{"program":"lud"}`)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("storm submit %d -> %d: %s", i, code, body)
		}
		if hdr.Get("Retry-After") == "" {
			t.Errorf("storm submit %d: no Retry-After header", i)
		}
	}
	if !s.Degraded() {
		t.Fatal("breaker did not trip after threshold failures")
	}

	// Degraded mode is externally visible: /readyz, shed submissions,
	// refused control changes, breaker metrics.
	if code, hdr, body := postRaw(t, ts.URL+"/v1/jobs", `{"program":"lud"}`); code != http.StatusServiceUnavailable {
		t.Errorf("degraded submit -> %d: %s", code, body)
	} else if hdr.Get("Retry-After") == "" {
		t.Error("degraded submit: no Retry-After header")
	}
	code, body = get(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "degraded") {
		t.Errorf("readyz while degraded -> %d: %s", code, body)
	}
	if code, _, body := postRaw(t, ts.URL+"/v1/cap", `{"cap_watts":12}`); code != http.StatusServiceUnavailable {
		t.Errorf("cap change while degraded -> %d: %s", code, body)
	}
	_, mbody := get(t, ts.URL+"/metrics")
	if v := metricValue(t, mbody, "corund_breaker_trips_total"); v != 1 {
		t.Errorf("breaker trips %v, want 1", v)
	}
	if v := metricValue(t, mbody, "corund_breaker_state"); v != float64(fault.BreakerOpen) {
		t.Errorf("breaker state %v, want open (%d)", v, fault.BreakerOpen)
	}

	// Automatic recovery: each cooldown lets one probe through. The
	// first failedProbes burn the rest of the schedule and re-open the
	// breaker; the next finds the journal working and closes it.
	for i := 0; i < failedProbes; i++ {
		coolDown()
		if code, _, body := postRaw(t, ts.URL+"/v1/jobs", `{"program":"lud"}`); code != http.StatusServiceUnavailable {
			t.Fatalf("probe %d inside the storm -> %d: %s", i, code, body)
		}
		if !s.Degraded() {
			t.Fatalf("probe %d failed but the breaker closed", i)
		}
	}
	coolDown()
	code, body = postJSON(t, ts.URL+"/v1/jobs", `{"program":"lud"}`)
	if code != http.StatusAccepted {
		t.Fatalf("probe after the storm -> %d: %s", code, body)
	}
	var post Job
	if err := json.Unmarshal([]byte(body), &post); err != nil {
		t.Fatal(err)
	}
	if s.Degraded() {
		t.Error("breaker still away from closed after a successful probe")
	}
	if code, _ := get(t, ts.URL+"/readyz"); code == http.StatusServiceUnavailable {
		// The loop was never started, so "starting" is the expected
		// non-degraded state; only "degraded" would be a failure here.
		if _, b := get(t, ts.URL+"/readyz"); strings.Contains(b, "degraded") {
			t.Errorf("readyz still degraded after recovery: %s", b)
		}
	}
	_, mbody = get(t, ts.URL+"/metrics")
	if v := metricValue(t, mbody, "corund_breaker_state"); v != float64(fault.BreakerClosed) {
		t.Errorf("breaker state %v after recovery, want closed", v)
	}
	if v := metricValue(t, mbody, "corund_breaker_trips_total"); v != 1+failedProbes {
		t.Errorf("breaker trips %v, want %d (the trip and each failed probe)", v, 1+failedProbes)
	}
	if v := metricValue(t, mbody, "corund_jobs_shed_total"); v < 1 {
		t.Errorf("shed %v, want >= 1", v)
	}
	if v := metricValue(t, mbody, `corund_fault_injections_total{site="journal/fsync"}`); v != storm {
		t.Errorf("fsync injections %v, want exactly %d (deterministic schedule)", v, storm)
	}

	// No acknowledged job lost, and none refused comes back: a failed
	// commit discards its records, so the restored set is exactly the
	// 202'd IDs.
	reg.Disarm()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := newJournalServer(t, dir)
	var restored []string
	for _, j := range s2.Jobs() {
		restored = append(restored, j.ID)
	}
	if want := []string{preStorm.ID, post.ID}; !slices.Equal(restored, want) {
		t.Errorf("restart restored jobs %v, want exactly the acked %v", restored, want)
	}
}

// TestEpochFaultFailsBatchNotDaemon injects one planning-round error:
// the claimed batch fails (with the injected error on the jobs and the
// plan), but the daemon stays up and the next batch schedules
// normally.
func TestEpochFaultFailsBatchNotDaemon(t *testing.T) {
	reg := fault.NewRegistry()
	s := newTestServer(t, func(c *Config) { c.Faults = reg })
	if err := reg.Arm(fault.Rule{Site: SiteEpoch, Kind: fault.KindError, Times: 1, Msg: "injected planner crash"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/v1/jobs", `{"program":"lud"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit -> %d: %s", code, body)
	}
	jobs := waitAllTerminal(t, s, 1, 60*time.Second)
	if jobs[0].State != JobFailed || !strings.Contains(jobs[0].Error, "injected planner crash") {
		t.Fatalf("faulted epoch job %+v, want failed with the injected error", jobs[0])
	}
	// The failed epoch's whole plan body: the planning view with the
	// state and the injected error, and nothing of an outcome.
	const wantPlan = `{
  "epoch": 1,
  "policy": "hcs+",
  "state": "failed",
  "jobs": [
    "job-000000"
  ],
  "cap_watts": 15,
  "clock_start_s": 0,
  "error": "fault: injected at server/epoch: injected planner crash"
}
`
	if _, body := get(t, ts.URL+"/v1/plan"); body != wantPlan {
		t.Errorf("plan after faulted epoch:\n%s\nwant:\n%s", body, wantPlan)
	}

	// The daemon is intact: the next batch runs to completion.
	if code, body := postJSON(t, ts.URL+"/v1/jobs", `{"program":"lud"}`); code != http.StatusAccepted {
		t.Fatalf("post-fault submit -> %d: %s", code, body)
	}
	for _, j := range waitAllTerminal(t, s, 2, 60*time.Second) {
		if j.ID != jobs[0].ID && j.State != JobDone {
			t.Errorf("post-fault job %s state %s (%s)", j.ID, j.State, j.Error)
		}
	}
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Errorf("readyz after faulted epoch -> %d, want 200", code)
	}
	_, mbody := get(t, ts.URL+"/metrics")
	if v := metricValue(t, mbody, "corund_jobs_failed_total"); v != 1 {
		t.Errorf("failed %v, want 1", v)
	}
}

// TestEpochLatencyFailpoint arms server/epoch with a latency rule, the
// planning-overrun spelling of the daemon's one planning failpoint: the
// round is delayed, not failed — its job still finishes done — and the
// injection is counted per site.
func TestEpochLatencyFailpoint(t *testing.T) {
	const delay = 50 * time.Millisecond
	reg := fault.NewRegistry()
	if err := reg.ArmSpec("server/epoch=latency(50ms,times=1)"); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, func(c *Config) { c.Faults = reg })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	if code, body := postJSON(t, ts.URL+"/v1/jobs", `{"program":"lud"}`); code != http.StatusAccepted {
		t.Fatalf("submit -> %d: %s", code, body)
	}
	jobs := waitAllTerminal(t, s, 1, 60*time.Second)
	if took := time.Since(start); took < delay {
		t.Errorf("job terminal after %v, before the injected %v planning delay", took, delay)
	}
	if jobs[0].State != JobDone {
		t.Fatalf("delayed epoch job %s state %s (%s), want done", jobs[0].ID, jobs[0].State, jobs[0].Error)
	}
	_, mbody := get(t, ts.URL+"/metrics")
	if v := metricValue(t, mbody, `corund_fault_injections_total{site="server/epoch"}`); v != 1 {
		t.Errorf("server/epoch injections %v, want 1", v)
	}
	if v := metricValue(t, mbody, "corund_jobs_failed_total"); v != 0 {
		t.Errorf("failed %v, want 0", v)
	}
}

// TestCapChangeRaceFreshPlans hammers POST /v1/cap from one goroutine
// while submissions keep epochs planning, and asserts no plan is ever
// produced under a cap that was never configured — the regression this
// guards is the memoized policy engine serving a plan computed for a
// stale cap. Run with -race, this also exercises the engine's memo
// tables under concurrent cap churn.
func TestCapChangeRaceFreshPlans(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.EpochGap = 2 * time.Millisecond })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	caps := map[float64]bool{15: true, 18: true}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() { // cap churn
		defer wg.Done()
		bodies := []string{`{"cap_watts":18}`, `{"cap_watts":15}`}
		for i := 0; i < 40; i++ {
			code, body := postJSON(t, ts.URL+"/v1/cap", bodies[i%2])
			if code != http.StatusOK {
				t.Errorf("set cap -> %d: %s", code, body)
				return
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() { // submissions keep epochs coming
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if code, body := postJSON(t, ts.URL+"/v1/jobs", `{"program":"lud"}`); code != http.StatusAccepted {
				t.Errorf("submit -> %d: %s", code, body)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	obsDone := make(chan struct{})
	go func() { // observer: every published plan carries a configured cap
		defer close(obsDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			code, body := get(t, ts.URL+"/v1/plan")
			if code == http.StatusOK {
				var pv PlanView
				if err := json.Unmarshal([]byte(body), &pv); err != nil {
					t.Errorf("decode plan: %v", err)
					return
				}
				if !caps[pv.CapWatts] {
					t.Errorf("plan epoch %d under cap %v, never configured", pv.Epoch, pv.CapWatts)
					return
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	wg.Wait() // both writers finished
	waitAllTerminal(t, s, 25, 120*time.Second)
	close(stop)
	<-obsDone

	// Deterministic tail: with the churn finished, one more cap change
	// followed by one more job must plan under exactly that cap — a
	// stale engine cache would surface here.
	if code, body := postJSON(t, ts.URL+"/v1/cap", `{"cap_watts":18}`); code != http.StatusOK {
		t.Fatalf("final set cap -> %d: %s", code, body)
	}
	if code, body := postJSON(t, ts.URL+"/v1/jobs", `{"program":"hotspot"}`); code != http.StatusAccepted {
		t.Fatalf("final submit -> %d: %s", code, body)
	}
	waitAllTerminal(t, s, 26, 60*time.Second)
	plan, ok := s.Plan()
	if !ok {
		t.Fatal("no plan after final epoch")
	}
	if plan.CapWatts != 18 {
		t.Errorf("final plan cap %v, want 18 (stale cap served)", plan.CapWatts)
	}
}
