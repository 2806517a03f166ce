package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"corun/internal/admission"
	"corun/internal/apu"
	"corun/internal/fault"
	"corun/internal/journal"
	"corun/internal/online"
	"corun/internal/trace"
	"corun/internal/units"
	"corun/internal/workload"
)

// This file is the request path: admission, the control state and its
// changes, the reads the handlers serve, and the Retry-After hints.
// Nothing here waits on an epoch.

// control is what an epoch plans under: the package cap, the plane
// caps and the policy. A published control is immutable — SetCaps and
// SetPolicy store a modified copy under ctlMu — so an epoch's one load
// sees a combination that was requested and journaled, never a mix of
// two.
type control struct {
	cap     units.Watts
	domains apu.DomainCaps
	policy  string
}

// mintJobID issues the next job ID, prefixed with the node identity
// when one is configured. Lock-free.
func (s *Server) mintJobID() string {
	n := s.nextID.Add(1) - 1
	buf := make([]byte, 0, len(s.idPrefix)+12)
	buf = append(buf, s.idPrefix...)
	buf = appendPaddedInt(buf, n, 6)
	return string(buf)
}

// setControl publishes c and the cap gauges. Callers hold ctlMu, or
// run before the server is shared (New, recovery).
func (s *Server) setControl(c control) {
	s.ctl.Store(&c)
	s.m.capWatts.Set(float64(c.cap))
	s.m.domainCapWatts.Set("pp0", float64(c.domains.PP0))
	s.m.domainCapWatts.Set("pp1", float64(c.domains.PP1))
}

// Submit admits one job, returning its initial record. ErrDraining and
// ErrQueueFull report admission refusals (a queue-full error also
// carries the *admission.FullError naming the exhausted bound); other
// errors are invalid specs. With a journal configured, the submission
// record is durable before the job is acknowledged or becomes visible
// to the scheduler — an acked job can never be lost to a crash, and
// the log can never hold a job's state transition ahead of its
// submission.
func (s *Server) Submit(spec workload.JobSpec) (Job, error) {
	j, err := s.submit(context.Background(), spec)
	if err != nil {
		return Job{}, err
	}
	return *j, nil
}

// submit is the hot admission path; the returned *Job is the
// published immutable snapshot (handlers encode straight from it). A
// ctx that ends before the submission record's commit begins refuses
// the job with ctx's error, having reserved nothing; once the commit
// has begun its outcome is the answer.
func (s *Server) submit(ctx context.Context, spec workload.JobSpec) (*Job, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	class, _ := admission.ParseClass(spec.Priority) // validated above
	err := s.cfg.Faults.Hit(SiteAdmit)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		s.m.rejected.Inc()
		return nil, err
	}
	// The reservation holds admission capacity while the journal write
	// is in flight, so concurrent submitters cannot overshoot the
	// global or tenant bound during the unlocked window below.
	s.admMu.Lock()
	if s.draining.Load() {
		s.admMu.Unlock()
		s.m.rejected.Inc()
		return nil, ErrDraining
	}
	if err := s.adm.Reserve(spec.Tenant); err != nil {
		s.admMu.Unlock()
		s.m.rejected.Inc()
		s.m.tenantRejected.Inc(admission.CanonicalTenant(spec.Tenant))
		return nil, fmt.Errorf("%w: %w", ErrQueueFull, err)
	}
	s.admMu.Unlock()

	j := s.arena.get()
	*j = Job{
		ID:          s.mintJobID(),
		Program:     spec.Program,
		Scale:       spec.Scale,
		Label:       spec.Label,
		DeadlineS:   spec.DeadlineS,
		Tenant:      spec.Tenant,
		Priority:    spec.Priority,
		State:       JobQueued,
		SubmittedAt: time.Now().UTC(),
		ArrivedSimS: float64(s.node.Clock()),
	}
	if s.jl != nil {
		// Concurrent submitters share fsyncs through the journal's group
		// commit; the ack waits only for its own record to be durable.
		err := s.appendDurable(ctx, journal.Record{Type: journal.TypeJobSubmitted, Job: j})
		if err != nil {
			s.admMu.Lock()
			s.adm.Unreserve(spec.Tenant)
			s.admMu.Unlock()
			s.m.rejected.Inc()
			switch {
			case errors.Is(err, journal.ErrClosed):
				return nil, ErrDraining
			case errors.Is(err, ErrDegraded):
				s.m.shed.Inc()
				return nil, ErrDegraded
			case err == ctx.Err():
				return nil, err
			}
			return nil, fmt.Errorf("%w: journaling submission: %v", ErrJournal, err)
		}
	}
	s.admMu.Lock()
	// A drain can begin while the journal commit was in flight; the
	// scheduler loop may already have flushed its final round and
	// exited. Enqueuing now would ack a job nothing will ever run, so
	// refuse it. (The submission record is already on disk — restart
	// recovery re-enqueues the job, the documented at-least-once side
	// of the durability guarantee, and the one way a refused job can
	// come back.)
	if s.draining.Load() {
		s.adm.Unreserve(spec.Tenant)
		s.admMu.Unlock()
		s.m.rejected.Inc()
		return nil, ErrDraining
	}
	// Publish before AddReserved: once the entry is selectable the
	// scheduler will publish transitions for it, which requires the
	// table to know the job. From here on j is immutable.
	s.table.insert(j)
	s.adm.AddReserved(admission.Entry{
		ID: j.ID, Tenant: j.Tenant, Class: class,
		EnqueuedAt: j.SubmittedAt, Payload: j,
	})
	depth, tenantDepth := s.adm.Len(), s.adm.TenantDepth(j.Tenant)
	s.admMu.Unlock()
	// The two cheap queue gauges update per admission so depth is
	// observable before the scheduler ever claims; the expensive scan
	// (oldest wait, all-tenant sweep) stays on the claim path.
	s.m.queueDepth.Set(float64(depth))
	s.m.tenantQueued.Set(j.Tenant, float64(tenantDepth))
	s.m.submitted.Inc()
	s.m.tenantAdmitted.Inc(j.Tenant)
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return j, nil
}

// Job returns a snapshot of one job by ID.
func (s *Server) Job(id string) (Job, bool) {
	if j := s.table.get(id); j != nil {
		return *j, true
	}
	return Job{}, false
}

// Jobs returns copies of every job in submission order.
func (s *Server) Jobs() []Job {
	refs := s.table.ordered()
	out := make([]Job, len(refs))
	for i, j := range refs {
		out[i] = *j
	}
	return out
}

// QueueDepth returns the number of admitted-but-unclaimed jobs.
func (s *Server) QueueDepth() int {
	s.admMu.Lock()
	defer s.admMu.Unlock()
	return s.adm.Len()
}

// Cap returns the active power cap.
func (s *Server) Cap() units.Watts { return s.ctl.Load().cap }

// DomainCaps returns the active per-plane caps (zero = unenforced).
func (s *Server) DomainCaps() apu.DomainCaps { return s.ctl.Load().domains }

// SetCaps changes the package and per-plane power caps together; they
// apply from the next epoch. The change is journaled as one record
// before it is acknowledged (or applied), so a restart restores the
// full cap state atomically.
func (s *Server) SetCaps(cap units.Watts, dc apu.DomainCaps) error {
	return s.setCaps(context.Background(), cap, dc)
}

// setCaps is SetCaps under a request context (see changeControl).
func (s *Server) setCaps(ctx context.Context, cap units.Watts, dc apu.DomainCaps) error {
	if err := s.cfg.Machine.CheckCaps(cap, dc); err != nil {
		return err
	}
	return s.changeControl(ctx, capRecord(cap, dc), "cap", func(c *control) { c.cap, c.domains = cap, dc })
}

// changeControl journals rec, then publishes the current control state
// with apply made to it; ctlMu keeps journal order and publish order
// the same. A ctx that has ended by the time ctlMu is held changes
// nothing and returns ctx's error; a commit once begun decides.
func (s *Server) changeControl(ctx context.Context, rec journal.Record, what string, apply func(*control)) error {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.jl != nil {
		if err := s.appendDurable(ctx, rec); err != nil {
			if errors.Is(err, ErrDegraded) || err == ctx.Err() {
				return err
			}
			return fmt.Errorf("%w: journaling %s change: %v", ErrJournal, what, err)
		}
	}
	c := *s.ctl.Load()
	apply(&c)
	s.setControl(c)
	return nil
}

// capRecord journals the full cap state: the package cap always, each
// plane only when configured (so old-journal replay semantics — no
// pointer, no plane cap — stay symmetric with new writes).
func capRecord(cap units.Watts, dc apu.DomainCaps) journal.Record {
	w := float64(cap)
	r := journal.Record{Type: journal.TypeCapChanged, CapWatts: &w}
	if dc.PP0 > 0 {
		v := float64(dc.PP0)
		r.PP0Watts = &v
	}
	if dc.PP1 > 0 {
		v := float64(dc.PP1)
		r.PP1Watts = &v
	}
	return r
}

// Policy returns the active epoch policy's canonical name.
func (s *Server) Policy() string { return s.ctl.Load().policy }

// SetPolicy changes the epoch policy live, by any registry spelling;
// it applies from the next epoch. Model-based policies require the
// server to hold a characterization. The change is journaled before
// it is acknowledged (or applied), so a restart restores it.
func (s *Server) SetPolicy(name string) error {
	return s.setPolicy(context.Background(), name)
}

// setPolicy is SetPolicy under a request context (see changeControl).
func (s *Server) setPolicy(ctx context.Context, name string) error {
	p, err := online.CheckPolicy(name, s.cfg.Char != nil)
	if err != nil {
		return err
	}
	return s.changeControl(ctx, journal.Record{Type: journal.TypePolicyChanged, Policy: p}, "policy", func(c *control) { c.policy = p })
}

// Plan returns the most recent epoch's schedule, if any epoch has been
// planned yet. Its slices are the stored view's, which is immutable:
// callers must not modify them.
func (s *Server) Plan() (PlanView, bool) {
	pv := s.lastPlan.Load()
	if pv == nil {
		return PlanView{}, false
	}
	return *pv, true
}

// Draining reports whether admission has stopped.
func (s *Server) Draining() bool { return s.draining.Load() }

// Degraded reports whether the journal circuit breaker is away from
// closed: durability is suspect, submissions and control changes are
// shed, and /readyz reports "degraded". The daemon leaves this state
// through a successful half-open probe once the cooldown elapses —
// i.e. automatically, as soon as the journal works again.
func (s *Server) Degraded() bool { return s.brk.State() != fault.BreakerClosed }

// retryAfterSeconds is the Retry-After hint on load-shedding
// responses: the breaker cooldown remainder while degraded, otherwise
// roughly two epochs of the most recent planning+execution latency.
func (s *Server) retryAfterSeconds() int {
	if until := s.brk.OpenUntil(); !until.IsZero() {
		if d := time.Until(until); d > 0 {
			return 1 + int(d/time.Second)
		}
	}
	if ns := s.lastEpochWall.Load(); ns > 0 {
		return retryClamp(int((2*time.Duration(ns) + time.Second - 1) / time.Second))
	}
	return 1
}

// retryClamp bounds a Retry-After hint estimated from latency or drain
// rate to [1, 30] s.
func retryClamp(secs int) int { return min(max(secs, 1), 30) }

// tenantRetryAfterSeconds is the Retry-After hint on a tenant's 429:
// how long until the tenant's own backlog drains one slot, from the
// admission layer's per-tenant drain-rate EWMA. Before any drain has
// been observed it falls back to the global epoch-latency hint.
func (s *Server) tenantRetryAfterSeconds(tenant string) int {
	s.admMu.Lock()
	rate := s.adm.DrainRate(tenant)
	depth := s.adm.TenantDepth(tenant)
	s.admMu.Unlock()
	if rate > 0 {
		return retryClamp(int(math.Ceil(float64(depth+1) / rate)))
	}
	return s.retryAfterSeconds()
}

// Ready reports whether the scheduler loop has started — i.e.
// startup recovery replay has finished and its re-enqueued queue has
// been handed to the loop. GET /readyz exposes it.
func (s *Server) Ready() bool { return s.ready.Load() }

// WriteTrace renders the epoch trace — makespan, average power, and
// batch size per epoch, indexed by the scheduling clock at the epoch's
// end — from the traced done views, as CSV or JSON.
func (s *Server) WriteTrace(w io.Writer, asJSON bool) error {
	s.traceMu.Lock()
	n := len(s.traced)
	series := []*trace.Series{
		trace.NewSeriesCap("epoch_makespan", "s", n),
		trace.NewSeriesCap("epoch_avg_power", "W", n),
		trace.NewSeriesCap("epoch_jobs", "count", n),
	}
	for _, pv := range s.traced {
		t := units.Seconds(pv.ClockEndS)
		series[0].MustAdd(t, pv.SimulatedMakespanS)
		series[1].MustAdd(t, pv.AvgPowerWatts)
		series[2].MustAdd(t, float64(len(pv.Jobs)))
	}
	s.traceMu.Unlock()
	if asJSON {
		return trace.WriteJSON(w, series...)
	}
	return trace.WriteMultiCSV(w, series...)
}

// WriteMetrics renders the Prometheus text exposition.
func (s *Server) WriteMetrics(w io.Writer) error { return s.m.reg.Write(w) }
