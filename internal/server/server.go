// Package server is the network-facing co-run scheduler daemon
// ("corund"): a long-running process that wraps the internal/online
// epoch scheduler behind a JSON HTTP API with Prometheus metrics.
//
// Jobs arrive over HTTP (POST /v1/jobs) and queue at the simulated
// power-capped APU node, an online.Node whose Run is the epoch step. A
// single scheduler goroutine owns the loop — the paper's online mode:
// while one planned batch executes, new arrivals queue; when the batch
// drains, the queue is re-planned with the configured policy under the
// current power cap. Policies resolve through the internal/policy registry
// (GET /v1/policies lists the registered set), and the cap and policy
// can be changed live (POST /v1/cap, POST /v1/policy), taking effect
// at the next epoch, the way a rack-level power manager retunes nodes.
//
// Admission — who is accepted and who is eligible next — is owned by
// the internal/admission layer: jobs carry a tenant and a priority
// class, tenants drain under weighted fair queueing, both a global and
// a per-tenant queue bound apply (429 once full, with the exhausted
// bound named in the body), and with Config.MaxBatch set a higher-
// priority arrival preempts the lowest-priority claimed batch members
// at the epoch boundary. The epoch loop never orders jobs itself; it
// claims work exclusively through the admission.Queue.
// SIGTERM-style shutdown is graceful: draining stops admission, the
// in-flight epoch completes, queued jobs are flushed through final
// rounds, and the loop exits.
//
// With Config.DataDir set, the daemon is durable: every acknowledged
// state change is written ahead to the internal/journal WAL, and a
// restart against the same directory restores the power cap, active
// policy, scheduling clock, epoch count and job table, re-enqueuing
// every non-terminal job. The drain path flushes and fsyncs the journal
// before the loop exits.
//
// Serving-path concurrency model (see DESIGN.md §2h): there is no
// global server mutex. The job table is striped with immutable
// atomic-pointer snapshots (jobTable), every journal commit is a
// direct appendDurable call whose fsync concurrent committers share
// through the journal's own group commit, the admission selector and
// the draining flag sit behind the small admMu, the control state (one
// immutable cap+planes+policy value), clock and plan are atomics, and
// everything else — epoch planning, queue-shape
// gauges, trace bookkeeping — belongs to the scheduler goroutine, off
// the request path.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"corun/internal/admission"
	"corun/internal/apu"
	"corun/internal/core"
	"corun/internal/fault"
	"corun/internal/journal"
	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/online"
	"corun/internal/sim"
	"corun/internal/trace"
	"corun/internal/units"
	"corun/internal/workload"
)

// Admission errors. Handlers map ErrDraining, ErrDegraded, and
// ErrJournal to 503 (the latter two with a Retry-After hint) and
// ErrQueueFull to 429.
var (
	ErrDraining  = errors.New("server: draining, not accepting jobs")
	ErrQueueFull = errors.New("server: job queue full")

	// ErrDegraded reports that the journal circuit breaker is open:
	// durability is unavailable, so the daemon sheds work that would
	// need an un-journaled acknowledgement rather than lie about it.
	ErrDegraded = errors.New("server: degraded, journaling suspended")

	// ErrJournal wraps a journal write that still failed after the
	// bounded retries; nothing was acknowledged.
	ErrJournal = errors.New("server: journal write failed")
)

// The daemon's failpoint sites (internal/fault), in addition to the
// journal's (journal.Site*) and the policy engine's (policy.SitePlan).
// SiteAdmit fires inside Submit before a job is admitted; SiteEpoch
// fires at the top of each scheduling round, where an error fails the
// batch (not the daemon) and a latency rule simulates a planning
// overrun.
const (
	SiteAdmit = "server/admit"
	SiteEpoch = "server/epoch"
)

// maxTraceEpochs bounds the epoch trace GET /v1/trace serves: a daemon
// appends to it every epoch for the life of the process, so it keeps
// the most recent epochs only.
const maxTraceEpochs = 4096

// The journal failure policy (DESIGN.md §2d). A commit is tried
// journalAttempts times — the first write and three retries — with the
// gaps growing from retryBase toward retryMax under ±retryJitter seeded
// jitter; breakerThreshold consecutive commits that fail past their
// retries trip the breaker, which sheds for breakerCooldown before it
// lets a probe through. drainTimeout bounds ListenAndServe's drain.
const (
	journalAttempts  = 4
	retryBase        = 5 * time.Millisecond
	retryMax         = 250 * time.Millisecond
	retryJitter      = 0.2
	breakerThreshold = 5
	breakerCooldown  = 2 * time.Second
	drainTimeout     = 30 * time.Second
)

// Config configures a daemon instance.
type Config struct {
	// Machine defaults to the paper's Ivy Bridge-like node.
	Machine *apu.Config

	// NodeID is the daemon's stable fleet identity ([A-Za-z0-9._]{1,32},
	// dashes allowed but not leading/trailing). When set, job IDs are
	// minted as "<node-id>-job-%06d" so a fleet coordinator can route
	// GET /v1/jobs/{id} to the owning shard by prefix, /readyz reports
	// it, and a corund_node_info{node=...} metric carries it for
	// fleet-wide aggregation. Empty keeps the single-node "job-%06d"
	// scheme. Keep it stable across restarts of the same data dir:
	// recovered jobs keep the IDs they were acknowledged under.
	NodeID string

	// Char is the offline micro-benchmark characterization; required
	// for the model-based policies (hcs+, hcs, default).
	Char *model.Characterization

	// Cap is the package power cap in watts (0 = uncapped).
	Cap units.Watts

	// Domains are optional RAPL-style per-plane caps enforced alongside
	// Cap: PP0 bounds the CPU cores, PP1 the iGPU. Like Cap they can be
	// changed live (POST /v1/cap) and are journaled/restored.
	Domains apu.DomainCaps

	// Policy is the policy registry name that plans each epoch;
	// defaults to "hcs+".
	Policy string

	// Seed drives refinement sampling and the Random policy.
	Seed int64

	// MaxQueue bounds admitted-but-unscheduled jobs across all tenants;
	// submissions over the bound get 429. Defaults to 256.
	MaxQueue int

	// TenantQueue bounds each single tenant's admitted-but-unscheduled
	// jobs (0 = no per-tenant bound), so one chatty client cannot fill
	// the global bound and starve everyone else's admission.
	TenantQueue int

	// TenantWeights are per-tenant weighted-fair-queueing weights: a
	// tenant's share of epoch slots under contention, and with it its
	// share of the power-capped node's capacity. Tenants not listed
	// weigh 1; a configured 0 pins a tenant to the admission package's
	// starvation floor (it still makes progress, at the lowest rate).
	TenantWeights map[string]float64

	// MaxBatch bounds how many jobs one epoch claims (0 = unbounded).
	// A bounded batch is what gives priorities teeth: when the batch
	// is full, a higher-priority arrival preempts (requeues) the
	// lowest-priority claimed member at the epoch boundary.
	MaxBatch int

	// EpochGap is a real-time batching window: the scheduler waits this
	// long after finding work before finalizing the claimed batch, so
	// concurrent submitters coalesce into one epoch — and it doubles as
	// the preemption window for higher-priority arrivals. 0 plans
	// immediately.
	EpochGap time.Duration

	// DataDir enables the durable state journal: every acknowledged
	// state change (job admission, lifecycle transition, cap change,
	// policy change) is logged under this directory, and a restart
	// against the same directory restores the cap, policy, clock, and
	// job table, re-enqueuing non-terminal jobs. Empty keeps the
	// daemon purely in-memory (the pre-journal behaviour).
	DataDir string

	// Fsync is the journal durability policy; defaults to
	// journal.FsyncAlways. Ignored without DataDir.
	Fsync journal.FsyncPolicy

	// Faults is the failpoint registry checked at the daemon's
	// injection sites (SiteAdmit, SiteEpoch, and the journal's sites);
	// nil uses fault.Default, which costs one atomic load while
	// disarmed. Hits and injections are exported as
	// corund_fault_hits_total / corund_fault_injections_total.
	Faults *fault.Registry

	// RequestTimeout is the per-request deadline on the HTTP API's
	// journaling routes (submit, cap, policy): a request that exceeds
	// it gets 503. 0 disables the deadline.
	RequestTimeout time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Machine == nil {
		out.Machine = apu.DefaultConfig()
	}
	if out.Policy == "" {
		out.Policy = "hcs+"
	}
	if out.MaxQueue == 0 {
		out.MaxQueue = 256
	}
	if out.Faults == nil {
		out.Faults = fault.Default
	}
	return out
}

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

// PlanView is the JSON form of one epoch's schedule, served by
// GET /v1/plan. Orders reference job IDs. A stored PlanView is
// immutable — updates build and publish a fresh one.
type PlanView struct {
	Epoch  int      `json:"epoch"`
	Policy string   `json:"policy"`
	State  string   `json:"state"` // planning | running | done | failed
	Jobs   []string `json:"jobs"`

	CPUOrder  []string `json:"cpu_order,omitempty"`
	GPUOrder  []string `json:"gpu_order,omitempty"`
	Exclusive []string `json:"exclusive,omitempty"`

	PredictedMakespanS float64 `json:"predicted_makespan_s,omitempty"`
	SimulatedMakespanS float64 `json:"simulated_makespan_s,omitempty"`

	// The power budget of the epoch: the cap it planned under and how
	// much of it execution actually used.
	CapWatts       float64 `json:"cap_watts"`
	AvgPowerWatts  float64 `json:"avg_power_watts,omitempty"`
	MaxPowerWatts  float64 `json:"max_power_watts,omitempty"`
	CapUtilization float64 `json:"cap_utilization,omitempty"`
	EnergyJoules   float64 `json:"energy_joules,omitempty"`

	// Per-plane caps the epoch planned under, the measured plane
	// powers, and the thermal outcome.
	PP0CapWatts       float64 `json:"pp0_cap_watts,omitempty"`
	PP1CapWatts       float64 `json:"pp1_cap_watts,omitempty"`
	AvgPP0Watts       float64 `json:"avg_pp0_watts,omitempty"`
	AvgPP1Watts       float64 `json:"avg_pp1_watts,omitempty"`
	MaxTempC          float64 `json:"max_temp_c,omitempty"`
	Throttles         int     `json:"throttles,omitempty"`
	BindingConstraint string  `json:"binding_constraint,omitempty"`

	ClockStartS float64 `json:"clock_start_s"`
	ClockEndS   float64 `json:"clock_end_s,omitempty"`

	Error string `json:"error,omitempty"`
}

func (p *PlanView) clone() PlanView {
	out := *p
	out.Jobs = append([]string(nil), p.Jobs...)
	out.CPUOrder = append([]string(nil), p.CPUOrder...)
	out.GPUOrder = append([]string(nil), p.GPUOrder...)
	out.Exclusive = append([]string(nil), p.Exclusive...)
	return out
}

// Server is the daemon: job table, scheduler goroutine, metrics, and
// (when configured with a data dir) the durable state journal.
//
// Locking, from hot to cold:
//   - none: job reads (table snapshots), control/clock/plan reads,
//     the draining fast check — all atomics.
//   - admMu: the admission selector and every decision that must be
//     atomic with it (reserve/enqueue/claim/preempt, the post-journal
//     draining re-check, the loop's exit decision).
//   - traceMu / ctlMu / arena.mu: small, single-purpose.
//
// The scheduler goroutine exclusively owns epochCount and the private
// batch copies it mutates between publishes.
type Server struct {
	cfg    Config
	mem    *memsys.Model
	m      *metrics
	jl     *journal.Journal // nil without Config.DataDir
	faults *fault.Registry
	brk    *fault.Breaker
	bo     fault.Backoff // journal write retry schedule

	// lastEpochWall is the wall-clock nanoseconds of the most recent
	// epoch's planning+execution, feeding the Retry-After hint on
	// load-shedding responses.
	lastEpochWall atomic.Int64

	// ctl is the control state; ctlMu serializes its writers so their
	// journal order matches their publish order.
	ctl   atomic.Pointer[control]
	ctlMu sync.Mutex

	// adm owns job ordering and eligibility: tenant queues, priority
	// classes, WFQ arbitration, and both admission bounds. Every adm
	// call is made under admMu, as is every draining decision that
	// must be atomic with the queue (a Queue is not concurrency-safe).
	admMu    sync.Mutex
	adm      *admission.Queue
	draining atomic.Bool

	// table is the sharded job table; arena slab-allocates the records
	// it publishes; nextID mints IDs lock-free.
	table    jobTable
	arena    jobArena
	nextID   atomic.Int64
	idPrefix string // "job-" or "<node-id>-job-"

	// Read on the request path, advanced by the scheduler: the node's
	// scheduling clock and the latest plan.
	node     online.Node
	lastPlan atomic.Pointer[PlanView] // immutable once stored

	// epochCount is owned by the scheduler goroutine (recovery writes
	// it before the loop starts).
	epochCount int
	// interpolationsSeen is what corund_model_interpolations_total has
	// already been advanced by; scheduler goroutine only.
	interpolationsSeen uint64

	// The epoch trace behind GET /v1/trace: one sample per series per
	// epoch, the most recent maxTraceEpochs epochs kept.
	traceMu       sync.Mutex
	traceMakespan *trace.Series
	tracePower    *trace.Series
	traceBatch    *trace.Series

	wake      chan struct{}
	stop      chan struct{}
	stopOnce  sync.Once
	startOnce sync.Once
	drained   chan struct{}

	// ready is closed when the scheduler loop starts, i.e. once
	// startup recovery has handed the restored queue to it; GET
	// /readyz reports 503 until then.
	ready     chan struct{}
	readyOnce sync.Once

	// recovery is what openJournal found; written once, in New.
	recovery Recovery
}

// New validates the configuration and builds a server. Call Start to
// launch the scheduler loop.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	// The epoch step's own checks, so the daemon rejects exactly what
	// online.Node.Run would.
	pol, err := online.CheckPolicy(cfg.Policy, cfg.Char != nil)
	if err != nil {
		return nil, err
	}
	cfg.Policy = pol
	if err := cfg.Machine.CheckCaps(cfg.Cap, cfg.Domains); err != nil {
		return nil, err
	}
	if cfg.MaxQueue < 0 {
		return nil, fmt.Errorf("server: negative max queue %d", cfg.MaxQueue)
	}
	if cfg.MaxBatch < 0 {
		return nil, fmt.Errorf("server: negative max batch %d", cfg.MaxBatch)
	}
	if err := ValidateNodeID(cfg.NodeID); err != nil {
		return nil, err
	}
	adm, err := admission.New(admission.Config{
		Weights:     cfg.TenantWeights,
		MaxQueue:    cfg.MaxQueue,
		TenantQueue: cfg.TenantQueue,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:           cfg,
		mem:           memsys.Default(),
		adm:           adm,
		m:             newMetrics(),
		idPrefix:      "job-",
		traceMakespan: trace.NewSeries("epoch_makespan", "s"),
		tracePower:    trace.NewSeries("epoch_avg_power", "W"),
		traceBatch:    trace.NewSeries("epoch_jobs", "count"),
		wake:          make(chan struct{}, 1),
		stop:          make(chan struct{}),
		drained:       make(chan struct{}),
		ready:         make(chan struct{}),
	}
	s.table.init()
	if cfg.NodeID != "" {
		s.idPrefix = cfg.NodeID + "-job-"
		s.m.nodeInfo.Set(cfg.NodeID, 1)
	}
	s.setControl(control{cap: cfg.Cap, domains: cfg.Domains, policy: cfg.Policy})
	s.faults = cfg.Faults
	s.faults.Subscribe(func(ev fault.Event) {
		s.m.faultHits.Inc(ev.Site)
		if ev.Injected {
			s.m.faultInjected.Inc(ev.Site)
		}
	})
	s.bo = fault.Backoff{
		Base: retryBase, Max: retryMax,
		Jitter: retryJitter, Seed: cfg.Seed,
		Attempts: journalAttempts,
	}
	s.brk = fault.NewBreaker(breakerThreshold, breakerCooldown)
	s.brk.OnChange(func(_, to fault.BreakerState) {
		s.m.brkState.Set(float64(to))
		if to == fault.BreakerOpen {
			s.m.brkTrips.Inc()
		}
	})
	if cfg.DataDir != "" {
		if err := s.openJournal(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// nodeIDPattern admits stable fleet identities that embed cleanly in
// job IDs and metric labels. Dashes are allowed inside (they also
// separate the ID from the "job-%06d" suffix, which parseJobID and the
// coordinator's longest-prefix routing both handle), but a leading or
// trailing dash would make the prefix ambiguous.
var nodeIDPattern = regexp.MustCompile(`^[A-Za-z0-9._](?:[A-Za-z0-9._-]{0,30}[A-Za-z0-9._])?$`)

// ValidateNodeID checks a fleet node identity; empty is valid (the
// single-node daemon has no identity to embed).
func ValidateNodeID(id string) error {
	if id == "" {
		return nil
	}
	if !nodeIDPattern.MatchString(id) {
		return fmt.Errorf("server: invalid node ID %q (1-32 of [A-Za-z0-9._-], no leading/trailing dash)", id)
	}
	return nil
}

// NodeID returns the daemon's configured fleet identity ("" for a
// standalone node).
func (s *Server) NodeID() string { return s.cfg.NodeID }

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
	err := s.faults.Hit(SiteAdmit)
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

// syncModelMetrics publishes the state of the characterization's
// pair cache (tables and feasible lists) after an epoch. Scheduler goroutine only.
func (s *Server) syncModelMetrics() {
	if s.cfg.Char == nil {
		return
	}
	st := s.cfg.Char.PairCacheStats()
	s.m.pairTables.Set(float64(st.Tables))
	s.m.feasibleLists.Set(float64(st.FeasibleLists))
	s.m.interpolations.Add(float64(st.Interpolations - s.interpolationsSeen))
	s.interpolationsSeen = st.Interpolations
}

// syncQueueGauges refreshes the queue-shape gauges from the admission
// state. Callers hold admMu. Runs only on the scheduler goroutine's
// claim/exit path — never on the request path.
func (s *Server) syncQueueGauges() {
	s.m.queueDepth.Set(float64(s.adm.Len()))
	s.adm.EachDepth(func(tenant string, depth int) {
		s.m.tenantQueued.Set(tenant, float64(depth))
	})
	s.m.oldestWait.Set(s.adm.OldestWait(time.Now().UTC()).Seconds())
}

// Job returns a snapshot of one job by ID.
func (s *Server) Job(id string) (Job, bool) {
	if j := s.table.get(id); j != nil {
		return *j, true
	}
	return Job{}, false
}

// jobRef returns the job's current immutable snapshot (nil if
// unknown); handlers encode from it without copying.
func (s *Server) jobRef(id string) *Job { return s.table.get(id) }

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

// SetCap changes the package power cap live, leaving any per-plane
// caps as they are; it applies from the next epoch.
func (s *Server) SetCap(cap units.Watts) error {
	return s.SetCaps(cap, s.DomainCaps())
}

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
// planned yet.
func (s *Server) Plan() (PlanView, bool) {
	pv := s.lastPlan.Load()
	if pv == nil {
		return PlanView{}, false
	}
	return pv.clone(), true
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
func (s *Server) Ready() bool {
	select {
	case <-s.ready:
		return true
	default:
		return false
	}
}

// WriteTrace renders the epoch trace — makespan, average power, and
// batch size per epoch, indexed by the scheduling clock — as CSV or
// JSON.
func (s *Server) WriteTrace(w io.Writer, asJSON bool) error {
	s.traceMu.Lock()
	series := []*trace.Series{
		s.traceMakespan.Clone(),
		s.tracePower.Clone(),
		s.traceBatch.Clone(),
	}
	s.traceMu.Unlock()
	if asJSON {
		return trace.WriteJSON(w, series...)
	}
	return trace.WriteMultiCSV(w, series...)
}

// WriteMetrics renders the Prometheus text exposition.
func (s *Server) WriteMetrics(w io.Writer) error { return s.m.reg.Write(w) }

// markDraining stops admission; idempotent. Taken under admMu so it
// serializes against Submit's post-journal re-check and the loop's
// exit decision.
func (s *Server) markDraining() {
	s.admMu.Lock()
	s.draining.Store(true)
	s.admMu.Unlock()
}

// loop is the single scheduler goroutine: it owns the epoch cycle and
// is the only writer of job state transitions past admission.
func (s *Server) loop(ctx context.Context) {
	defer func() {
		// The drain contract: everything journaled during the final
		// flush round is on stable storage before Drained closes.
		if s.jl != nil {
			_ = s.jl.Sync()
		}
		s.m.up.Set(0)
		close(s.drained)
	}()
	s.m.up.Set(1)
	// Startup recovery has handed its re-enqueued queue to this loop;
	// the server is now ready (GET /readyz).
	s.readyOnce.Do(func() { close(s.ready) })
	for {
		if ctx.Err() != nil {
			s.markDraining()
		}
		s.admMu.Lock()
		pending := s.adm.Len()
		draining := s.draining.Load()
		if pending == 0 && draining {
			s.syncQueueGauges()
			s.admMu.Unlock()
			return
		}
		s.admMu.Unlock()
		if pending == 0 {
			select {
			case <-ctx.Done():
			case <-s.stop:
				s.markDraining()
			case <-s.wake:
			}
			continue
		}
		// Claim the initial batch before the gap: the gap then doubles
		// as the preemption window. Arrivals during it either coalesce
		// into the epoch (batch below MaxBatch) or, when strictly
		// higher-priority, displace claimed members at the boundary.
		claimed := s.claimBatch()
		if gap := s.cfg.EpochGap; gap > 0 && !draining {
			t := time.NewTimer(gap)
			select {
			case <-ctx.Done():
			case <-s.stop:
			case <-t.C:
			}
			t.Stop()
		}
		s.runEpoch(claimed)
	}
}

// claimBatch selects the next epoch's initial members through the
// admission layer: strict priority across classes, weighted fair
// queueing across tenants within a class.
func (s *Server) claimBatch() []admission.Entry {
	s.admMu.Lock()
	defer s.admMu.Unlock()
	claimed := s.adm.SelectBatch(s.cfg.MaxBatch, time.Now().UTC())
	s.syncQueueGauges()
	return claimed
}

// publishBatch publishes fresh immutable snapshots for every job in
// the scheduler's private batch and returns them.
func (s *Server) publishBatch(batch []Job) []*Job {
	snaps := make([]*Job, len(batch))
	for i := range batch {
		pj := batch[i]
		s.table.publish(&pj)
		snaps[i] = &pj
	}
	return snaps
}

// runEpoch finalizes the claimed batch at the epoch boundary and runs
// one scheduling round.
//
// The scheduler works on private copies of the claimed jobs (the
// admission payloads are published snapshots and immutable); every
// externally meaningful transition is published to the table as a
// fresh snapshot. Only terminal transitions are journaled (in one
// batch at the end of the round) — the intermediate planned/running
// records carried no recovery information, since startup replay
// resets every non-terminal job to queued anyway.
func (s *Server) runEpoch(claimed []admission.Entry) {
	s.admMu.Lock()
	// The boundary decision: absorb gap arrivals up to MaxBatch, then
	// let strictly higher-priority arrivals displace the lowest-
	// priority claimed members. Displaced jobs return to the front of
	// their tenant queue with their original tags — requeued, not
	// resubmitted — and run next epoch.
	kept, requeued := s.adm.Preempt(claimed, s.cfg.MaxBatch, time.Now().UTC())
	s.syncQueueGauges()
	s.admMu.Unlock()
	if len(requeued) > 0 {
		s.m.preemptions.Add(float64(len(requeued)))
	}
	batch := make([]Job, len(kept))
	for i, e := range kept {
		batch[i] = *e.Payload.(*Job)
	}
	epoch := s.epochCount + 1
	ctl := s.ctl.Load()
	capW, domains, policy := ctl.cap, ctl.domains, ctl.policy
	clock := s.node.Clock()
	seed := epochSeed(s.cfg.Seed, epoch)
	insts := make([]*workload.Instance, len(batch))
	var specErr error
	for i := range batch {
		j := &batch[i]
		j.State = JobPlanned
		j.Epoch = epoch
		spec := workload.JobSpec{
			Program: j.Program, Scale: j.Scale, Label: j.Label,
			DeadlineS: j.DeadlineS, Tenant: j.Tenant, Priority: j.Priority,
		}
		inst, err := spec.Instance(i, j.ID)
		if err != nil {
			specErr = err
			break
		}
		insts[i] = inst
	}
	s.publishBatch(batch)
	pv := newPlanView(epoch, policy, capW, domains, clock, batch)
	pv.State = "planning"
	s.lastPlan.Store(&pv)
	if specErr != nil {
		s.finishEpochErr(batch, epoch, specErr)
		return
	}

	// The epoch failpoint: an injected error fails this batch (the
	// daemon stays up, exactly like an unschedulable cap), and a
	// latency rule models a planning-epoch overrun.
	if err := s.faults.Hit(SiteEpoch); err != nil {
		s.finishEpochErr(batch, epoch, err)
		return
	}

	opts := online.Options{
		Cfg: s.cfg.Machine, Mem: s.mem, Char: s.cfg.Char,
		Cap: capW, Domains: domains, Policy: policy, Seed: seed,
	}
	opts.Planned = func(plan *core.Schedule, predicted units.Seconds) {
		for i := range batch {
			batch[i].State = JobRunning
			if predicted > 0 {
				batch[i].PredictedFinishSimS = float64(clock + predicted)
			}
		}
		s.publishBatch(batch)
		run := newPlanView(epoch, policy, capW, domains, clock, batch)
		run.State = "running"
		fillPlan(&run, plan, predicted, batch)
		s.lastPlan.Store(&run)
		if predicted > 0 {
			s.m.predMakespan.Set(float64(predicted))
		}
	}

	start := time.Now()
	plan, predicted, res, err := s.node.Run(opts, insts, seed)
	s.m.epochLatency.Observe(time.Since(start).Seconds())
	s.lastEpochWall.Store(int64(time.Since(start)))
	s.syncModelMetrics()
	if err != nil {
		s.finishEpochErr(batch, epoch, err)
		return
	}

	partners := partnerMap(res.Completions)
	for _, c := range res.Completions {
		j := &batch[c.Inst.ID]
		j.State = JobDone
		j.StartedSimS = float64(clock + c.Start)
		j.FinishedSimS = float64(clock + c.End)
		j.ResponseS = j.FinishedSimS - j.ArrivedSimS
		j.Device = c.Dev.String()
		if p, ok := partners[c.Inst.ID]; ok {
			j.Partner = batch[p].ID
		}
		if j.DeadlineS > 0 {
			met := j.ResponseS <= j.DeadlineS
			j.DeadlineMet = &met
			if !met {
				s.m.deadlineMiss.Inc()
			}
		}
	}
	endClock := s.node.Clock()
	s.epochCount = epoch
	snaps := s.publishBatch(batch)

	s.m.epochs.Inc()
	s.m.done.Add(float64(len(res.Completions)))
	s.m.scheduled.Add(policy, float64(len(res.Completions)))
	s.m.energy.Add(res.EnergyJ)
	s.m.simMakespan.Set(float64(res.Makespan))
	s.m.simClock.Set(float64(endClock))
	if capW > 0 {
		s.m.capUtil.Set(float64(res.AvgPower) / float64(capW))
	}
	s.m.domainWatts.Set("pp0", float64(res.AvgPP0))
	s.m.domainWatts.Set("pp1", float64(res.AvgPP1))
	s.m.tempC.Set(res.MaxTempC)
	s.m.throttleTotal.Add(float64(res.Throttles))
	for _, c := range bindingConstraints {
		v := 0.0
		if c == res.Binding.String() {
			v = 1
		}
		s.m.binding.Set(c, v)
	}

	s.traceMu.Lock()
	s.traceMakespan.MustAdd(endClock, float64(res.Makespan))
	s.tracePower.MustAdd(endClock, float64(res.AvgPower))
	s.traceBatch.MustAdd(endClock, float64(len(batch)))
	for _, series := range []*trace.Series{s.traceMakespan, s.tracePower, s.traceBatch} {
		series.Trim(maxTraceEpochs)
	}
	s.traceMu.Unlock()

	done := newPlanView(epoch, policy, capW, domains, clock, batch)
	done.State = "done"
	fillPlan(&done, plan, predicted, batch)
	done.SimulatedMakespanS = float64(res.Makespan)
	done.AvgPowerWatts = float64(res.AvgPower)
	done.MaxPowerWatts = float64(res.MaxSample)
	if capW > 0 {
		done.CapUtilization = float64(res.AvgPower) / float64(capW)
	}
	done.EnergyJoules = res.EnergyJ
	done.AvgPP0Watts = float64(res.AvgPP0)
	done.AvgPP1Watts = float64(res.AvgPP1)
	done.MaxTempC = res.MaxTempC
	done.Throttles = res.Throttles
	done.BindingConstraint = res.Binding.String()
	done.ClockEndS = float64(endClock)
	s.lastPlan.Store(&done)
	s.journalAppend(s.stateRecords(snaps, float64(endClock)))
}

// epochSeed derives the per-epoch RNG seed for randomized policies
// from the configured seed and the epoch number (splitmix64 finalizer).
// Deriving instead of drawing from a shared rand.Rand keeps runs
// reproducible for a given (seed, epoch) regardless of interleaving,
// and leaves nothing for concurrent paths to contend on.
func epochSeed(seed int64, epoch int) int64 {
	z := uint64(seed) + uint64(epoch)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// finishEpochErr marks a failed round. The daemon stays up: one
// unschedulable batch (e.g. the cap was dropped below feasibility
// between admission and planning) must not take the node down.
func (s *Server) finishEpochErr(batch []Job, epoch int, err error) {
	for i := range batch {
		batch[i].State = JobFailed
		batch[i].Error = err.Error()
	}
	snaps := s.publishBatch(batch)
	s.m.failed.Add(float64(len(batch)))
	s.m.epochs.Inc()
	s.epochCount = epoch
	if pv := s.lastPlan.Load(); pv != nil && pv.Epoch == epoch {
		failed := pv.clone()
		failed.State = "failed"
		failed.Error = err.Error()
		s.lastPlan.Store(&failed)
	}
	s.journalAppend(s.stateRecords(snaps, 0))
}

// bindingConstraints are the label values of corund_binding_constraint,
// pre-registered so dashboards see zeros instead of absent series.
var bindingConstraints = []string{"none", "pp0", "pp1", "package", "thermal"}

func newPlanView(epoch int, policy string, capW units.Watts, dc apu.DomainCaps, clock units.Seconds, batch []Job) PlanView {
	pv := PlanView{
		Epoch:       epoch,
		Policy:      policy,
		CapWatts:    float64(capW),
		PP0CapWatts: float64(dc.PP0),
		PP1CapWatts: float64(dc.PP1),
		ClockStartS: float64(clock),
	}
	for i := range batch {
		pv.Jobs = append(pv.Jobs, batch[i].ID)
	}
	return pv
}

func fillPlan(pv *PlanView, plan *core.Schedule, predicted units.Seconds, batch []Job) {
	if plan == nil {
		return
	}
	for _, i := range plan.CPUOrder {
		pv.CPUOrder = append(pv.CPUOrder, batch[i].ID)
	}
	for _, i := range plan.GPUOrder {
		pv.GPUOrder = append(pv.GPUOrder, batch[i].ID)
	}
	for _, i := range plan.Jobs() {
		if plan.Exclusive[i] {
			pv.Exclusive = append(pv.Exclusive, batch[i].ID)
		}
	}
	pv.PredictedMakespanS = float64(predicted)
}

// partnerMap pairs each completed job with the opposite-device job it
// overlapped longest with, by instance ID.
func partnerMap(cs []sim.Completion) map[int]int {
	out := map[int]int{}
	for i, a := range cs {
		best, bestOv := -1, units.Seconds(0)
		for j, b := range cs {
			if i == j || a.Dev == b.Dev {
				continue
			}
			ov := min(a.End, b.End) - max(a.Start, b.Start)
			if ov > bestOv {
				bestOv = ov
				best = b.Inst.ID
			}
		}
		if best >= 0 {
			out[a.Inst.ID] = best
		}
	}
	return out
}
