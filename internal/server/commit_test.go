package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corun/internal/fault"
	"corun/internal/journal"
	"corun/internal/workload"
)

// TestSubmitDurableAck is the submit→ack path's property test: eight
// concurrent submitters commit beside the running scheduler (whose
// terminal batches are committers too) against a real journal with
// fsync faults injected on several schedules. Every submission is
// acked or failed exactly once (acked + failed == submitted), and for
// every acked job the journal's durable watermark, read right after
// the ack, covers the sequence number Append assigned its submission
// record, and that record is in the log. Retries and the breaker are
// the daemon's own: a failed commit discards its records and an
// isolated fault is absorbed by appending them afresh, and the storm —
// journalAttempts fsyncs for each of breakerThreshold commits — can
// fail commits outright and trip the breaker, whose cooldown the
// test's clock skips. The drop-on-fail schedule is what makes
// re-syncing unsafe: its failed fsyncs also cut the log back to the
// last durable offset, as a kernel that dropped the dirty pages would,
// so a retry that synced again would ack records that are gone. The
// log stays far below the journal's compaction threshold, so every
// record is still in it for the check. Run under -race, the test also
// proves the direct commit path is data-race free.
func TestSubmitDurableAck(t *testing.T) {
	schedules := []struct {
		name string
		rule *fault.Rule
	}{
		{"no-faults", nil},
		{"every-3rd-fsync", &fault.Rule{Site: journal.SiteFsync, Kind: fault.KindError, Every: 3, Msg: "injected fsync"}},
		{"first-5-fsyncs", &fault.Rule{Site: journal.SiteFsync, Kind: fault.KindError, Times: 5, Msg: "injected fsync"}},
		{"storm", &fault.Rule{Site: journal.SiteFsync, Kind: fault.KindError, Times: journalAttempts * breakerThreshold, Msg: "injected fsync"}},
		{"drop-on-fail", &fault.Rule{Site: journal.SiteFsync, Kind: fault.KindDrop, Every: 3, Msg: "injected fsync, pages dropped"}},
	}
	for _, sched := range schedules {
		t.Run(sched.name, func(t *testing.T) {
			const goroutines, perG = 8, 50
			dir := t.TempDir()
			reg := fault.NewRegistry()
			s := newTestServer(t, func(c *Config) {
				c.Policy = "random"
				c.MaxQueue = goroutines * perG
				c.DataDir = dir
				c.Fsync = journal.FsyncAlways
				c.Faults = reg
			})
			// Every reading of the breaker's clock is one cooldown after the
			// last, so an open breaker half-opens at its next Allow.
			var ticks atomic.Int64
			start := time.Now()
			s.brk.SetClock(func() time.Time { return start.Add(time.Duration(ticks.Add(1)) * breakerCooldown) })
			// Arm after New, past the cap/policy records a fresh dir seeds.
			if sched.rule != nil {
				if err := reg.Arm(*sched.rule); err != nil {
					t.Fatal(err)
				}
			}
			s.Start(context.Background())

			spec := mustSpec(t, "lud")
			var mu sync.Mutex
			durableAtAck := map[string]uint64{}
			failed := 0
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						j, err := s.Submit(spec)
						d := s.jl.DurableSeq()
						mu.Lock()
						if err != nil {
							failed++
						} else {
							durableAtAck[j.ID] = d
						}
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			reg.Disarm()
			// The property is about the log as the daemon really writes
			// it: a chunk reserved ahead of the records, trimmed by Close.
			open, err := os.Stat(filepath.Join(dir, walName))
			if err != nil {
				t.Fatal(err)
			}
			drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := s.DrainAndWait(drainCtx); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			acked := len(durableAtAck)
			if acked+failed != goroutines*perG {
				t.Fatalf("acked %d + failed %d = %d, want exactly %d (no lost or double acks)",
					acked, failed, acked+failed, goroutines*perG)
			}
			if sched.rule == nil && failed != 0 {
				t.Fatalf("%d submissions failed with no faults armed", failed)
			}
			if acked == 0 {
				t.Fatal("every submission failed; the property was never exercised")
			}

			submittedSeq := map[string]uint64{}
			data, err := os.ReadFile(filepath.Join(dir, walName))
			if err != nil {
				t.Fatal(err)
			}
			if runtime.GOOS == "linux" && open.Size() <= int64(len(data)) {
				t.Errorf("the log was %d bytes while open and is %d closed: it ran unpreallocated", open.Size(), len(data))
			}
			for off := 0; off < len(data); {
				r, n, err := journal.DecodeRecord(data[off:])
				if err != nil {
					t.Fatalf("log offset %d: %v", off, err)
				}
				if r.Type == journal.TypeJobSubmitted {
					submittedSeq[r.Job.ID] = r.Seq
				}
				off += n
			}
			for id, d := range durableAtAck {
				seq, ok := submittedSeq[id]
				if !ok {
					t.Errorf("acked job %s has no submission record in the log", id)
				} else if d < seq {
					t.Errorf("acked job %s: seq %d > durable watermark %d at its ack", id, seq, d)
				}
			}
		})
	}
}

// TestCommitMetricsCountAppends pins what feeds
// corund_journal_batches_total and corund_journal_batch_records now
// that nothing sits between a committer and the journal: one Append is
// one commit, whatever its record count. The scheduler loop stays
// stopped so the test owns every commit.
func TestCommitMetricsCountAppends(t *testing.T) {
	s := newJournalServer(t, t.TempDir())
	metricsBody := func() string {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return w.Body.String()
	}
	scrape := func() (batches, batchRecs, appends float64) {
		t.Helper()
		body := metricsBody()
		return metricValue(t, body, "corund_journal_batches_total"),
			metricValue(t, body, "corund_journal_batch_records_sum"),
			metricValue(t, body, "corund_journal_appends_total")
	}
	b0, r0, a0 := scrape()
	if b0 != 2 || a0 != 2 {
		t.Fatalf("fresh data dir: %v commits of %v records, want the 2 seeding commits (cap, policy)", b0, a0)
	}

	// Three single-record commits: a submission and two control changes.
	if _, err := s.Submit(mustSpec(t, "lud")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetCap(14); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPolicy("hcs"); err != nil {
		t.Fatal(err)
	}
	// One three-record commit, the shape of a scheduler terminal batch.
	watts := 13.0
	rec := journal.Record{Type: journal.TypeCapChanged, CapWatts: &watts}
	s.journalAppend([]journal.Record{rec, rec, rec})

	b1, r1, a1 := scrape()
	if b1-b0 != 4 {
		t.Errorf("corund_journal_batches_total advanced by %v over 4 commits", b1-b0)
	}
	if a1-a0 != 6 || r1-r0 != 6 {
		t.Errorf("appends advanced by %v, batch_records_sum by %v, want 6 records each", a1-a0, r1-r0)
	}
	// Every fsync of the six commits was timed, and so was each
	// commit's wait for the one ahead of it; nothing refused the log
	// its preallocation.
	body := metricsBody()
	for name, want := range map[string]float64{
		"corund_journal_fsyncs_total":             6,
		"corund_journal_fsync_seconds_count":      6,
		"corund_journal_sync_wait_seconds_count":  6,
		"corund_journal_prealloc_fallbacks_total": 0,
	} {
		if got := metricValue(t, body, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestPreallocFaultRunsUnpreallocated: a filesystem that refuses the
// log its preallocation (the journal/prealloc failpoint here) costs
// the daemon nothing but speed — submissions are acked and durable,
// the breaker sees no failure — and /metrics says it happened, once
// per chunk rather than once per append.
func TestPreallocFaultRunsUnpreallocated(t *testing.T) {
	reg := fault.NewRegistry()
	if err := reg.ArmSpec("journal/prealloc=error(every=1)"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s := newTestServer(t, func(c *Config) {
		c.DataDir = dir
		c.Fsync = journal.FsyncAlways
		c.Faults = reg
	})
	defer s.Close()
	for i := 0; i < 5; i++ {
		j, err := s.Submit(mustSpec(t, "lud"))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if s.jl.DurableSeq() < s.jl.LastSeq() {
			t.Fatalf("job %s acked ahead of the durable watermark", j.ID)
		}
	}
	if got := s.m.jlPreallocFallbacks.Value(); got != 1 {
		t.Errorf("corund_journal_prealloc_fallbacks_total = %v, want 1", got)
	}
	if st := s.brk.State(); st != fault.BreakerClosed {
		t.Errorf("breaker %v, want closed", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := newJournalServer(t, dir)
	if rec := s2.Recovery(); rec.Jobs != 5 || rec.TruncatedTailBytes != 0 || rec.PreallocatedTailBytes != 0 {
		t.Errorf("recovery report %+v", rec)
	}
}

// TestSubmitAfterCloseRefused: a commit that races Close gets the
// journal's ErrClosed, which is the drain path, not a fault — the
// submitter sees ErrDraining, its reservation is released (a leaked
// one would turn the third refusal into ErrQueueFull), and the breaker
// does not count it.
func TestSubmitAfterCloseRefused(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.DataDir = t.TempDir()
		c.MaxQueue = 2
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*breakerThreshold; i++ {
		if _, err := s.Submit(mustSpec(t, "lud")); !errors.Is(err, ErrDraining) {
			t.Fatalf("submit %d after Close = %v, want ErrDraining", i, err)
		}
	}
	if st := s.brk.State(); st != fault.BreakerClosed {
		t.Errorf("breaker %v after closed-journal refusals, want closed", st)
	}
}

// TestJournalAppendsPerJob is a count gate, a ceiling at today's
// value: over a scripted session against a data dir — jobs submitted
// one after another beside the running scheduler, then a drain — the
// journal takes two records per job, the submission and the terminal
// state, and nothing else (corunmark's journal.appends_per_job, which
// repeats to the digit). A change that raises it says why in the same
// diff; one that lowers it lowers it here.
func TestJournalAppendsPerJob(t *testing.T) {
	const jobs, appendsPerJob = 40, 2.0
	s := newTestServer(t, func(c *Config) {
		c.Policy = "random"
		c.DataDir = t.TempDir()
		c.EpochGap = time.Millisecond
	})
	t.Cleanup(func() { s.Close() })
	appends0 := s.m.jlAppends.Value()
	s.Start(context.Background())
	for i := 0; i < jobs; i++ {
		if _, err := s.Submit(mustSpec(t, "lud")); err != nil {
			t.Fatal(err)
		}
	}
	waitAllTerminal(t, s, jobs, 60*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.DrainAndWait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := (s.m.jlAppends.Value() - appends0) / jobs; got > appendsPerJob {
		t.Errorf("%.2f journal appends per job, ceiling %.2f", got, appendsPerJob)
	}
}

// TestScriptedSessionJournal pins the daemon's epoch loop by what it
// journals. Ten jobs from three tenants — one high-priority, one with
// a deadline — and a cap change are all made before Start, so with
// MaxBatch 4 the session is three epochs whatever the host's speed.
// The log is decoded, each submission's wall-clock SubmittedAt is
// zeroed, and each record is re-encoded; the payloads, one a line,
// must equal testdata/session_<policy>.golden under a planned policy
// and under the Random dispatcher.
func TestScriptedSessionJournal(t *testing.T) {
	for _, pol := range []string{"hcs+", "random"} {
		t.Run(pol, func(t *testing.T) {
			dir := t.TempDir()
			s := newTestServer(t, func(c *Config) {
				c.Policy, c.DataDir, c.MaxBatch = pol, dir, 4
			})
			t.Cleanup(func() { s.Close() })
			for i, program := range []string{
				"streamcluster", "cfd", "dwt2d", "hotspot", "srad",
				"lud", "leukocyte", "heartwall", "cfd", "dwt2d",
			} {
				spec := workload.JobSpec{Program: program, Tenant: []string{"team-a", "team-b", "batch"}[i%3]}
				switch i {
				case 4:
					spec.Priority = "high"
				case 6:
					spec.DeadlineS = 150
				case 7:
					spec.Scale = 0.9
				}
				spec.Normalize()
				if _, err := s.Submit(spec); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.SetCap(16); err != nil {
				t.Fatal(err)
			}
			s.Start(context.Background())
			waitAllTerminal(t, s, 10, 60*time.Second)
			if err := s.DrainAndWait(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			log, err := os.ReadFile(filepath.Join(dir, walName))
			if err != nil {
				t.Fatal(err)
			}
			var got []byte
			for off := 0; off < len(log); {
				r, n, err := journal.DecodeRecord(log[off:])
				if errors.Is(err, journal.ErrEndOfLog) {
					break
				}
				if err != nil {
					t.Fatalf("record at offset %d: %v", off, err)
				}
				off += n
				if r.Job != nil {
					r.Job.SubmittedAt = time.Time{}
				}
				frame, err := journal.AppendRecord(nil, r)
				if err != nil {
					t.Fatal(err)
				}
				got = append(append(got, frame[8:]...), '\n') // past the length and CRC32
			}
			name := filepath.Join("testdata", "session_"+strings.ReplaceAll(pol, "+", "plus")+".golden")
			want, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("journal differs from %s:\ngot:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}
