package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"corun/internal/admission"
	"corun/internal/apu"
	"corun/internal/fault"
	"corun/internal/journal"
	"corun/internal/online"
	"corun/internal/units"
)

// Recovery describes what startup recovery found and what it cost;
// the zero value means the daemon runs without a journal.
type Recovery struct {
	journal.RecoverStats
	// Requeued counts the acknowledged, non-terminal jobs put back on
	// the queue (Jobs, in RecoverStats, counts every job restored).
	Requeued int
	// JournalOpen is the time journal.Open took: reading, decoding and
	// replaying snapshot and log. Total adds restoring the job table
	// and the admission queues from the recovered state.
	JournalOpen, Total time.Duration
}

// Recovery reports the startup recovery New performed.
func (s *Server) Recovery() Recovery { return s.recovery }

// openJournal opens (and recovers) the durable state journal in
// cfg.DataDir, restoring the power cap, active policy, scheduling
// clock, epoch count, and job table. Non-terminal jobs are re-enqueued:
// their epoch died with the previous process, so they go back to
// queued and get replanned by the first epoch after Start. Called from
// New before the scheduler loop exists, so no locking is needed.
func (s *Server) openJournal() error {
	start := time.Now()
	jl, st, stats, err := journal.Open(journal.Options{
		Dir:   s.cfg.DataDir,
		Fsync: s.cfg.Fsync,
		Observer: journal.Observer{
			Append: func(records, bytes int, latency time.Duration) {
				s.m.jlAppends.Add(float64(records))
				s.m.jlBytes.Add(float64(bytes))
				s.m.jlAppendLatency.Observe(latency.Seconds())
				// One Append is one commit: its records share one
				// write and at most one fsync.
				s.m.jlBatches.Inc()
				s.m.jlBatchRecords.Observe(float64(records))
			},
			Fsync: func(took time.Duration) {
				s.m.jlFsyncs.Inc()
				s.m.jlFsyncSeconds.Observe(took.Seconds())
			},
			SyncWait:         func(waited time.Duration) { s.m.jlSyncWait.Observe(waited.Seconds()) },
			PreallocFallback: func(error) { s.m.jlPreallocFallbacks.Inc() },
			Snapshot:         func() { s.m.jlSnapshots.Inc() },
			SnapshotError:    func(error) { s.m.jlSnapErrors.Inc() },
		},
		Faults: s.cfg.Faults,
	})
	if err != nil {
		return err
	}
	s.jl = jl
	opened := time.Since(start)

	// Recovered cap and policy win over the configured (flag) values:
	// the journal carries the live changes made through the API, and a
	// restart must not silently roll them back. A fresh data dir seeds
	// the journal with the configured values instead, so the very
	// first restart already restores them.
	fail := func(err error) error {
		jl.Close()
		s.jl = nil
		return err
	}
	ctl := *s.ctl.Load()
	if st.CapWatts != nil {
		ctl.cap = units.Watts(*st.CapWatts)
		ctl.domains = apu.DomainCaps{}
		if st.PP0Watts != nil {
			ctl.domains.PP0 = units.Watts(*st.PP0Watts)
		}
		if st.PP1Watts != nil {
			ctl.domains.PP1 = units.Watts(*st.PP1Watts)
		}
		if err := s.cfg.Machine.CheckCaps(ctl.cap, ctl.domains); err != nil {
			return fail(fmt.Errorf("server: recovered power cap: %w", err))
		}
	} else {
		if err := jl.Append(capRecord(ctl.cap, ctl.domains)); err != nil {
			return fail(err)
		}
	}
	if st.Policy != "" {
		p, err := online.CheckPolicy(st.Policy, s.cfg.Char != nil)
		if err != nil {
			return fail(fmt.Errorf("server: recovered policy: %w", err))
		}
		ctl.policy = p
	} else {
		if err := jl.Append(journal.Record{Type: journal.TypePolicyChanged, Policy: ctl.policy}); err != nil {
			return fail(err)
		}
	}
	s.setControl(ctl)

	// The recovered records are the journal's own and never modified
	// (journal.Open), so a terminal job's record becomes its table
	// snapshot as it is; a requeued job gets a copy.
	requeued := 0
	s.table.reserve(len(st.Jobs))
	for _, j := range st.Jobs {
		if !terminal(j.State) {
			// The previous process acknowledged the job but never
			// finished it; any in-flight epoch is gone, so it starts
			// over from the queue. Jobs restore through the admission
			// layer in record (submission) order, which rebuilds each
			// tenant's FIFO and reassigns the WFQ virtual-time tags in
			// arrival order — so the first epoch after a crash selects
			// by priority and fairness, not by raw record order.
			// Restore bypasses the queue bounds: every journaled ack
			// must be honoured even if bounds shrank between runs.
			q := *j
			j = &q
			j.State = JobQueued
			j.Epoch = 0
			j.StartedSimS = 0
			j.PredictedFinishSimS = 0
			class, cerr := admission.ParseClass(j.Priority)
			if cerr != nil {
				class = admission.ClassNormal // tolerant replay, like orphan transitions
			}
			s.adm.Restore(admission.Entry{
				ID: j.ID, Tenant: j.Tenant, Class: class,
				EnqueuedAt: j.SubmittedAt, Payload: j,
			})
			requeued++
		}
		// Epochs number on from the last one a terminal job ran in.
		s.epochCount = max(s.epochCount, j.Epoch)
		s.table.insert(j)
		if n, ok := parseJobID(j.ID); ok && int64(n) >= s.nextID.Load() {
			s.nextID.Store(int64(n) + 1)
		}
	}
	// The heatsink the last journaled epoch left; its ceilings are held
	// to this machine's levels, in case the preset changed between runs.
	var heat *apu.Heat
	if h := st.Heat; h != nil {
		m := s.cfg.Machine
		heat = &apu.Heat{TempC: h.TempC, Ceil: [apu.NumDevices]int{
			min(max(h.CPUCeil, 0), m.MaxFreqIndex(apu.CPU)), min(max(h.GPUCeil, 0), m.MaxFreqIndex(apu.GPU)),
		}}
	}
	s.node.Restore(units.Seconds(st.SimClockS), heat)

	s.admMu.Lock()
	s.syncQueueGauges()
	s.admMu.Unlock()
	s.m.simClock.Set(float64(s.node.Clock()))
	s.m.jlRecovered.Set(float64(requeued))
	s.m.jlTruncated.Set(float64(stats.TruncatedTailBytes))
	s.m.jlPreallocTail.Set(float64(stats.PreallocatedTailBytes))
	s.m.jlReplayed.Set(float64(stats.RecordsReplayed))
	s.recovery = Recovery{RecoverStats: stats, Requeued: requeued, JournalOpen: opened, Total: time.Since(start)}
	s.m.jlRecoverySeconds.Set(s.recovery.Total.Seconds())
	return nil
}

// appendDurable commits records through the journal with the daemon's
// failure policy wrapped around it: ctx ending first commits nothing
// (its error is returned as is), the circuit breaker gates the commit
// (ErrDegraded when open), a failed Append — which left nothing in
// the log — is appended afresh on the jittered exponential backoff
// until the attempts or ctx run out, and the outcome feeds the
// breaker. An Append once begun is never abandoned: its result is the
// answer.
func (s *Server) appendDurable(ctx context.Context, recs ...journal.Record) error {
	if s.jl == nil || len(recs) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if !s.brk.Allow() {
		return ErrDegraded
	}
	err := s.bo.Run(ctx, func(attempt int) error {
		if attempt > 0 {
			s.m.jlRetries.Inc()
		}
		err := s.jl.Append(recs...)
		if errors.Is(err, journal.ErrClosed) {
			return fault.Permanent(err)
		}
		return err
	})
	if err != nil {
		// A closed journal is the drain path, not a fault.
		if !errors.Is(err, journal.ErrClosed) {
			s.brk.Failure()
		}
		return err
	}
	s.brk.Success()
	return nil
}

// parseJobID extracts the numeric suffix of a "job-%06d" or
// "<node-id>-job-%06d" ID so recovery can resume the ID sequence past
// every restored job, including journals written under a different
// (or no) node identity.
func parseJobID(id string) (int, bool) {
	i := strings.LastIndex(id, "job-")
	if i < 0 || (i > 0 && id[i-1] != '-') {
		return 0, false
	}
	n, err := strconv.Atoi(id[i+len("job-"):])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
