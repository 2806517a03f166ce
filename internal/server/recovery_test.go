package server

// Crash-recovery integration tests: a daemon journaling to a data
// dir is killed without draining, its log tail is corrupted the way
// a power cut would, and a second daemon on the same dir must come
// back with the cap, policy, and every acknowledged job intact.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"corun/internal/journal"
	"corun/internal/workload"
)

const walName = "wal.log" // mirrors the journal package's log file name

func newJournalServer(t *testing.T, dir string) *Server {
	t.Helper()
	s := newTestServer(t, func(c *Config) {
		c.DataDir = dir
		c.Fsync = journal.FsyncAlways
	})
	t.Cleanup(func() { s.Close() })
	return s
}

// jobBodies is what the daemon serves of its job table: the GET
// /v1/jobs body and every job's GET /v1/jobs/{id} body, by path.
func jobBodies(t *testing.T, s *Server) map[string]string {
	t.Helper()
	paths := []string{"/v1/jobs"}
	for _, j := range s.Jobs() {
		paths = append(paths, "/v1/jobs/"+j.ID)
	}
	h := s.Handler()
	out := map[string]string{}
	for _, p := range paths {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s -> %d: %s", p, rec.Code, rec.Body)
		}
		out[p] = rec.Body.String()
	}
	return out
}

func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s1 := newJournalServer(t, dir)
	ts := httptest.NewServer(s1.Handler())
	defer ts.Close()

	// The scheduler loop was never started: liveness holds but the
	// daemon is not ready to serve jobs yet.
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz -> %d: %s", code, body)
	}
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "starting") {
		t.Fatalf("readyz before start -> %d: %s", code, body)
	}

	// Acknowledge three jobs and two control changes; with
	// FsyncAlways every 2xx response implies a durable record.
	for _, spec := range []string{
		`{"program":"streamcluster"}`,
		`{"program":"dwt2d","scale":1.2,"label":"waves"}`,
		`{"program":"hotspot","deadline_s":10000}`,
	} {
		if code, body := postJSON(t, ts.URL+"/v1/jobs", spec); code != http.StatusAccepted {
			t.Fatalf("submit %s -> %d: %s", spec, code, body)
		}
	}
	if code, body := postJSON(t, ts.URL+"/v1/cap", `{"cap_watts":12}`); code != http.StatusOK {
		t.Fatalf("set cap -> %d: %s", code, body)
	}
	if code, body := postJSON(t, ts.URL+"/v1/policy", `{"policy":"hcs"}`); code != http.StatusOK {
		t.Fatalf("set policy -> %d: %s", code, body)
	}
	want := s1.Jobs()
	bodies := jobBodies(t, s1)

	// Hard stop: no Drain, no Close — the data dir is all that
	// survives. Then a torn in-flight write rots the end of the log.
	ts.Close()
	path := filepath.Join(dir, walName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x2a, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newJournalServer(t, dir)
	if got := s2.Cap(); got != 12 {
		t.Errorf("recovered cap %v, want 12", got)
	}
	if got := s2.Policy(); got != "hcs" {
		t.Errorf("recovered policy %v, want %v", got, "hcs")
	}
	if got := s2.QueueDepth(); got != len(want) {
		t.Errorf("queue depth %d, want %d re-enqueued jobs", got, len(want))
	}
	if s2.m.jlTruncated.Value() == 0 {
		t.Error("torn tail not truncated")
	}
	if s2.m.jlRecovered.Value() != float64(len(want)) {
		t.Errorf("recovered gauge %v, want %d", s2.m.jlRecovered.Value(), len(want))
	}
	if got := s2.Jobs(); !reflect.DeepEqual(got, want) {
		t.Errorf("jobs not restored bit-for-bit:\n got %+v\nwant %+v", got, want)
	}
	if got := jobBodies(t, s2); !reflect.DeepEqual(got, bodies) {
		t.Errorf("job bodies changed across the restart:\n got %q\nwant %q", got, bodies)
	}
	// What the boot log and /metrics say about it: 2 seeding records
	// (cap, policy) + 3 submissions + 2 control changes replayed, all
	// written by this build and so none through the slow path.
	rec := s2.Recovery()
	if rec.Jobs != len(want) || rec.Requeued != len(want) || rec.RecordsReplayed != 7 ||
		rec.SlowPathRecords != 0 || rec.TruncatedTailBytes != 6 || rec.SnapshotLoaded {
		t.Errorf("recovery report %+v", rec)
	}
	if rec.JournalOpen <= 0 || rec.Total < rec.JournalOpen {
		t.Errorf("recovery timings: open %v, total %v", rec.JournalOpen, rec.Total)
	}
	if s2.m.jlReplayed.Value() != 7 || s2.m.jlRecoverySeconds.Value() != rec.Total.Seconds() {
		t.Errorf("gauges: replayed %v, seconds %v; report %+v",
			s2.m.jlReplayed.Value(), s2.m.jlRecoverySeconds.Value(), rec)
	}

	// The recovered queue is live: start the scheduler and the
	// re-enqueued jobs run to completion.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s2.Start(ctx)
	for _, j := range waitAllTerminal(t, s2, len(want), 60*time.Second) {
		if j.State != JobDone {
			t.Errorf("job %s state %s (%s)", j.ID, j.State, j.Error)
		}
	}
	// A fourth submission resumes the ID sequence past the recovered
	// jobs instead of reusing job-000002.
	j4, err := s2.Submit(workload.JobSpec{Program: "lud"})
	if err != nil {
		t.Fatal(err)
	}
	if j4.ID != "job-000003" {
		t.Errorf("post-recovery ID %s, want job-000003", j4.ID)
	}
}

// TestCrashRecoveryPreallocatedLog is the crash as a running daemon
// really leaves it: killed without Close, so the log is its records,
// then a write cut short, then the untouched rest of the chunk the
// journal had reserved. Recovery must bring back every acked job,
// report the partial frame as torn and the zeros as preallocation —
// each under its own name — and leave a log a clean shutdown trims.
func TestCrashRecoveryPreallocatedLog(t *testing.T) {
	dir := t.TempDir()
	s1 := newJournalServer(t, dir)
	for _, p := range []string{"streamcluster", "dwt2d", "hotspot"} {
		if _, err := s1.Submit(workload.JobSpec{Program: p}); err != nil {
			t.Fatal(err)
		}
	}
	want := s1.Jobs()

	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	logical := 0
	for logical < len(data) {
		_, n, err := journal.DecodeRecord(data[logical:])
		if err != nil {
			if !errors.Is(err, journal.ErrEndOfLog) {
				t.Fatalf("log offset %d: %v", logical, err)
			}
			break
		}
		logical += n
	}
	if runtime.GOOS == "linux" && len(data) == logical {
		t.Fatal("the running daemon's log is not preallocated")
	}
	frame, err := journal.AppendRecord(nil, journal.Record{Type: journal.TypePolicyChanged, Policy: "hcs"})
	if err != nil {
		t.Fatal(err)
	}
	partial := frame[:len(frame)-7]
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(partial, int64(logical)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	size := max(len(data), logical+len(partial))

	s2 := newJournalServer(t, dir)
	if got := s2.Jobs(); !reflect.DeepEqual(got, want) {
		t.Errorf("jobs not restored bit-for-bit:\n got %+v\nwant %+v", got, want)
	}
	rec := s2.Recovery()
	if rec.RecordsReplayed != 5 || rec.Requeued != len(want) ||
		rec.TruncatedTailBytes != int64(len(partial)) ||
		rec.PreallocatedTailBytes != int64(size-logical-len(partial)) {
		t.Errorf("recovery report %+v, want %d torn and %d preallocated bytes",
			rec, len(partial), size-logical-len(partial))
	}
	if s2.m.jlTruncated.Value() != float64(rec.TruncatedTailBytes) ||
		s2.m.jlPreallocTail.Value() != float64(rec.PreallocatedTailBytes) {
		t.Errorf("gauges: truncated %v, preallocated %v; report %+v",
			s2.m.jlTruncated.Value(), s2.m.jlPreallocTail.Value(), rec)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(logical) {
		t.Errorf("log is %d bytes after recovery (%v), want it cut back to %d", fi.Size(), err, logical)
	}

	// The recovered daemon runs the jobs and shuts down cleanly; the
	// next start finds nothing to repair.
	s2.Start(context.Background())
	waitAllTerminal(t, s2, len(want), 60*time.Second)
	if err := s2.DrainAndWait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := newJournalServer(t, dir)
	if rec := s3.Recovery(); rec.TruncatedTailBytes != 0 || rec.PreallocatedTailBytes != 0 || rec.Jobs != len(want) {
		t.Errorf("after a clean shutdown: %+v", rec)
	}
}

// TestCrashRecoveryPriorityOrder pins the recovery ordering contract:
// replay must rebuild the per-tenant admission queues and select by
// priority and fairness, not raw record order. Four jobs are
// journaled in the order low, normal, high, high-on-another-tenant;
// after a hard stop, a MaxBatch=1 restart must run the high-priority
// jobs first even though the low one leads the log.
func TestCrashRecoveryPriorityOrder(t *testing.T) {
	dir := t.TempDir()
	s1 := newJournalServer(t, dir)
	submit := func(s *Server, spec workload.JobSpec) Job {
		t.Helper()
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %+v: %v", spec, err)
		}
		return j
	}
	low := submit(s1, workload.JobSpec{Program: "lud", Priority: "low"})
	norm := submit(s1, workload.JobSpec{Program: "lud"})
	highA := submit(s1, workload.JobSpec{Program: "lud", Priority: "high"})
	highB := submit(s1, workload.JobSpec{Program: "lud", Priority: "high", Tenant: "b"})

	// Hard stop: the scheduler never started, so all four jobs are
	// journaled non-terminal in submission order.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, func(c *Config) {
		c.DataDir = dir
		c.Fsync = journal.FsyncAlways
		c.MaxBatch = 1 // one job per epoch -> the epoch number IS the selection order
	})
	defer s2.Close()
	if got := s2.QueueDepth(); got != 4 {
		t.Fatalf("recovered queue depth %d, want 4", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s2.Start(ctx)
	epochs := map[string]int{}
	for _, j := range waitAllTerminal(t, s2, 4, 60*time.Second) {
		if j.State != JobDone {
			t.Errorf("job %s state %s (%s)", j.ID, j.State, j.Error)
		}
		epochs[j.ID] = j.Epoch
	}
	// Selection order: both highs first (tenant b is fresh, so WFQ
	// puts its start tag ahead of the backlogged default tenant's),
	// then normal, then low — NOT the record order low, norm, high.
	want := map[string]int{highB.ID: 1, highA.ID: 2, norm.ID: 3, low.ID: 4}
	if !reflect.DeepEqual(epochs, want) {
		t.Errorf("recovered selection order (by epoch) = %v, want %v", epochs, want)
	}
}

// TestPriorityPreemption drives the cooperative-preemption path end to
// end: a claimed low-priority batch member is displaced by a
// higher-priority job that lands during the batching gap, requeued
// (not failed, not resubmitted), and served next epoch. The long gap
// plus Drain makes the boundary deterministic: draining cuts the gap
// short, so no timing is involved.
func TestPriorityPreemption(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxBatch = 1
		c.EpochGap = 60 * time.Second
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	low, err := s.Submit(workload.JobSpec{Program: "lud", Priority: "low"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the loop to claim it (the queue empties), so the high
	// submission below lands during the gap, against a claimed batch.
	deadline := time.Now().Add(30 * time.Second)
	for s.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("low job never claimed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	high, err := s.Submit(workload.JobSpec{Program: "lud", Priority: "high"})
	if err != nil {
		t.Fatal(err)
	}
	// Drain: the loop stops waiting out the gap, preempts at the
	// boundary, and flushes both jobs through final rounds.
	s.Drain()
	select {
	case <-s.Drained():
	case <-time.After(60 * time.Second):
		t.Fatal("drain stuck")
	}
	gotHigh, _ := s.Job(high.ID)
	gotLow, _ := s.Job(low.ID)
	if gotHigh.State != JobDone || gotLow.State != JobDone {
		t.Fatalf("states high=%s low=%s, want done/done", gotHigh.State, gotLow.State)
	}
	if gotHigh.Epoch != 1 || gotLow.Epoch != 2 {
		t.Errorf("epochs high=%d low=%d, want 1 and 2 (low preempted to the next epoch)",
			gotHigh.Epoch, gotLow.Epoch)
	}
	if v := s.m.preemptions.Value(); v != 1 {
		t.Errorf("preemptions %v, want 1", v)
	}
}

// waitClaimed waits until the loop has claimed every queued job.
func waitClaimed(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for s.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never claimed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFullEpochClosesBeforeGap: the arrival that leaves MaxBatch jobs
// on hand ends the batching gap at once — with no Drain, all four jobs
// run in epoch 1 long before the 60 s gap would have elapsed.
func TestFullEpochClosesBeforeGap(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxBatch = 4
		c.EpochGap = 60 * time.Second
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	submit := func() {
		t.Helper()
		if _, err := s.Submit(workload.JobSpec{Program: "lud"}); err != nil {
			t.Fatal(err)
		}
	}
	// The first job is claimed alone, so the other three arrive during
	// the gap (a claim that is already full keeps its whole gap).
	submit()
	waitClaimed(t, s)
	for range 3 {
		submit()
	}
	for _, j := range waitAllTerminal(t, s, 4, 5*time.Second) {
		if j.State != JobDone || j.Epoch != 1 {
			t.Errorf("%s: %s in epoch %d, want done in epoch 1", j.ID, j.State, j.Epoch)
		}
	}
	if full, gap := s.m.epochCloses.Value("full"), s.m.epochCloses.Value("gap"); full != 1 || gap != 0 {
		t.Errorf("epoch closes full=%v gap=%v, want 1 and 0", full, gap)
	}
}

// TestFullClaimKeepsPreemptionWindow: a claim that fills MaxBatch by
// itself still waits out the gap — neither the claim nor a stale wake
// closes it — so a higher-priority arrival can displace a member, and
// that arrival closes the gap at the moment it lands.
func TestFullClaimKeepsPreemptionWindow(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxBatch = 1
		c.EpochGap = 60 * time.Second
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	low, err := s.Submit(workload.JobSpec{Program: "lud", Priority: "low"})
	if err != nil {
		t.Fatal(err)
	}
	waitClaimed(t, s)
	// A wake with nothing queued, as a submit whose token outlived
	// its claim leaves behind.
	select {
	case s.wake <- struct{}{}:
	default:
	}
	time.Sleep(200 * time.Millisecond)
	if j, _ := s.Job(low.ID); j.State != JobQueued || j.Epoch != 0 {
		t.Fatalf("low is %s in epoch %d 200 ms after its claim, want queued, unplanned", j.State, j.Epoch)
	}

	high, err := s.Submit(workload.JobSpec{Program: "lud", Priority: "high"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for j, _ := s.Job(high.ID); !terminal(j.State); j, _ = s.Job(high.ID) {
		if time.Now().After(deadline) {
			t.Fatalf("high is %s 5 s after its submission: the arrival did not close the gap", j.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if j, _ := s.Job(high.ID); j.State != JobDone || j.Epoch != 1 {
		t.Fatalf("high is %s in epoch %d, want done in epoch 1", j.State, j.Epoch)
	}
	// Low is back in the queue, claimed alone for epoch 2; the drain
	// ends that epoch's gap.
	s.Drain()
	select {
	case <-s.Drained():
	case <-time.After(60 * time.Second):
		t.Fatal("drain stuck")
	}
	if j, _ := s.Job(low.ID); j.State != JobDone || j.Epoch != 2 {
		t.Errorf("low is %s in epoch %d, want done in epoch 2 (preempted)", j.State, j.Epoch)
	}
	if v := s.m.preemptions.Value(); v != 1 {
		t.Errorf("preemptions %v, want 1", v)
	}
	if full, drain := s.m.epochCloses.Value("full"), s.m.epochCloses.Value("drain"); full != 1 || drain != 1 {
		t.Errorf("epoch closes full=%v drain=%v, want 1 and 1", full, drain)
	}
}

// TestRestartAfterDrain is the clean-shutdown half: drain flushes the
// journal, and a restart restores the finished jobs and clock exactly
// with nothing re-enqueued.
func TestRestartAfterDrain(t *testing.T) {
	dir := t.TempDir()
	s1 := newJournalServer(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s1.Start(ctx)
	for _, spec := range []workload.JobSpec{
		{Program: "streamcluster", Label: "<a&b>\u2028", DeadlineS: 1e9},
		{Program: "lud", DeadlineS: 1e-7},
		{Program: "cfd", Tenant: "team-a", Priority: "high"},
	} {
		if _, err := s1.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	waitAllTerminal(t, s1, 3, 60*time.Second)
	if err := s1.DrainAndWait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	want := s1.Jobs()
	bodies := jobBodies(t, s1)

	s2 := newJournalServer(t, dir)
	if got := s2.Jobs(); !reflect.DeepEqual(got, want) {
		t.Errorf("jobs not restored bit-for-bit:\n got %+v\nwant %+v", got, want)
	}
	if got := jobBodies(t, s2); !reflect.DeepEqual(got, bodies) {
		t.Errorf("job bodies changed across the restart:\n got %q\nwant %q", got, bodies)
	}
	if s2.QueueDepth() != 0 || s2.m.jlRecovered.Value() != 0 {
		t.Errorf("terminal jobs re-enqueued: depth %d, recovered %v",
			s2.QueueDepth(), s2.m.jlRecovered.Value())
	}
	if s2.m.jlTruncated.Value() != 0 {
		t.Errorf("clean shutdown left %v truncated bytes", s2.m.jlTruncated.Value())
	}
	if s1.node.Clock() != s2.node.Clock() {
		t.Errorf("clock %v restored as %v", s1.node.Clock(), s2.node.Clock())
	}
	m := s1.cfg.Machine
	if h1, h2 := s1.node.Heat(), s2.node.Heat(); h1 != h2 || h1 == m.Cold() {
		t.Errorf("heatsink %+v restored as %+v (cold: %+v)", h1, h2, m.Cold())
	}
}

// A journal written before the heatsink was carried has no heat on its
// records: it replays the clock, and a cold node.
func TestRestartFromJournalWithoutHeat(t *testing.T) {
	dir := t.TempDir()
	jl, _, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	job := &journal.JobRecord{ID: "job-000000", Program: "lud", Scale: 1, State: JobDone, Epoch: 1, FinishedSimS: 42}
	if err := jl.Append(
		journal.Record{Type: journal.TypeJobSubmitted, Job: &journal.JobRecord{ID: job.ID, Program: "lud", Scale: 1, State: JobQueued}},
		journal.Record{Type: journal.TypeJobState, Job: job, SimClockS: 42},
	); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	s := newJournalServer(t, dir)
	if m := s.cfg.Machine; s.node.Clock() != 42 || s.node.Heat() != m.Cold() {
		t.Errorf("restored at clock %v on %+v, want 42 on the cold %+v", s.node.Clock(), s.node.Heat(), m.Cold())
	}
}

// TestRestartNumbersEpochsOn: a restarted daemon numbers its epochs on
// from the last one its journal recorded, so no epoch number — and no
// epoch seed, which is derived from it — is handed out twice.
func TestRestartNumbersEpochsOn(t *testing.T) {
	dir := t.TempDir()
	s1 := newJournalServer(t, dir)
	s1.Start(context.Background())
	for n := 1; n <= 3; n++ {
		if _, err := s1.Submit(mustSpec(t, "lud")); err != nil {
			t.Fatal(err)
		}
		waitAllTerminal(t, s1, n, 60*time.Second)
	}
	if err := s1.DrainAndWait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newJournalServer(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s2.Start(ctx)
	if _, err := s2.Submit(mustSpec(t, "lud")); err != nil {
		t.Fatal(err)
	}
	jobs := waitAllTerminal(t, s2, 4, 60*time.Second)
	for i, j := range jobs {
		if j.State != JobDone || j.Epoch != i+1 {
			t.Errorf("%s: %s in epoch %d, want done in epoch %d", j.ID, j.State, j.Epoch, i+1)
		}
	}
	if pv, ok := s2.Plan(); !ok || pv.Epoch != 4 {
		t.Errorf("the first epoch after the restart is %d, want 4", pv.Epoch)
	}
}

// TestRequeueLeavesJournalRecord: a job recovered non-terminal goes
// back on the queue as a copy of its record, which the journal keeps
// (journal.Open hands out its own records), so the next compaction
// snapshots the record as journaled, not the requeued job.
func TestRequeueLeavesJournalRecord(t *testing.T) {
	dir := t.TempDir()
	jl, _, _, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	journaled := journal.JobRecord{
		ID: "job-000000", Program: "lud", Tenant: "default", Priority: "normal",
		SubmittedAt: time.Date(2026, 10, 2, 9, 0, 0, 0, time.UTC), ArrivedSimS: 1.5,
		State: JobRunning, Epoch: 3, StartedSimS: 5, PredictedFinishSimS: 9,
	}
	rec := journaled
	if err := jl.Append(journal.Record{Type: journal.TypeJobState, Job: &rec}); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	s := newJournalServer(t, dir)
	if j, ok := s.Job(journaled.ID); !ok || j.State != JobQueued || j.Epoch != 0 || j.StartedSimS != 0 || j.PredictedFinishSimS != 0 {
		t.Fatalf("recovered %+v, want it requeued", j)
	}
	if err := s.jl.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	jl, st, stats, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	got, ok := st.Job(journaled.ID)
	if !stats.SnapshotLoaded || !ok || !reflect.DeepEqual(got, journaled) {
		t.Errorf("snapshot after the restart holds %+v (%+v), want the journaled record %+v", got, stats, journaled)
	}
}
