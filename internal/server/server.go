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
// global server mutex. The job table is one lock over immutable
// atomic-pointer snapshots (jobTable), every journal commit is a
// direct appendDurable call whose fsync concurrent committers share
// through the journal's own group commit, the admission selector and
// the draining flag sit behind the small admMu, the control state (one
// immutable cap+planes+policy value), clock and plan are atomics, and
// everything else — epoch planning, queue-shape
// gauges, trace bookkeeping — belongs to the scheduler goroutine, off
// the request path. The files follow the domains: this one builds the
// server, request.go is the request path, epoch.go is everything the
// scheduler goroutine runs, and table.go is the job table.
package server

import (
	"errors"
	"fmt"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"corun/internal/admission"
	"corun/internal/apu"
	"corun/internal/fault"
	"corun/internal/journal"
	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/online"
	"corun/internal/units"
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
// journal's (journal.Site*).
// SiteAdmit fires inside Submit before a job is admitted; SiteEpoch
// fires at the top of each scheduling round, where an error fails the
// batch (not the daemon) and a latency rule simulates a planning
// overrun.
const (
	SiteAdmit = "server/admit"
	SiteEpoch = "server/epoch"
)

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
	// lowest-priority claimed member at the epoch boundary. It also
	// ends the batching gap early: an arrival that leaves MaxBatch
	// jobs on hand (claimed plus queued) closes the epoch at once.
	MaxBatch int

	// EpochGap is the longest real-time batching window: after finding
	// work the scheduler waits up to this long before finalizing the
	// claimed batch, so concurrent submitters coalesce into one epoch —
	// and it doubles as the preemption window for higher-priority
	// arrivals. An arrival that leaves MaxBatch jobs on hand closes the
	// epoch at once; a claim that is full by itself waits for the next
	// arrival or the whole gap. 0 plans immediately.
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
	// nil arms none. Hits and injections are exported as
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
	cfg Config
	mem *memsys.Model
	m   *metrics
	jl  *journal.Journal // nil without Config.DataDir
	brk *fault.Breaker
	bo  fault.Backoff // journal write retry schedule

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

	// table is the job table; arena slab-allocates the records
	// it publishes; nextID mints IDs lock-free.
	table    jobTable
	arena    jobArena
	nextID   atomic.Int64
	idPrefix string // "job-" or "<node-id>-job-"

	// Read on the request path, advanced by the scheduler: the node's
	// scheduling clock and the latest plan.
	node     *online.Node
	lastPlan atomic.Pointer[PlanView] // immutable once stored

	// epochCount is owned by the scheduler goroutine (recovery writes
	// it before the loop starts).
	epochCount int
	// interpolationsSeen is what corund_model_interpolations_total has
	// already been advanced by; scheduler goroutine only.
	interpolationsSeen uint64

	// The epoch trace behind GET /v1/trace: the done views of the most
	// recent maxTraceEpochs epochs, oldest first.
	traceMu sync.Mutex
	traced  []*PlanView

	wake      chan struct{}
	stop      chan struct{}
	stopOnce  sync.Once
	startOnce sync.Once
	drained   chan struct{}

	// ready is set when the scheduler loop starts, i.e. once startup
	// recovery has handed the restored queue to it; GET /readyz
	// reports 503 until then.
	ready atomic.Bool

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
		cfg:      cfg,
		mem:      memsys.Default(),
		adm:      adm,
		m:        newMetrics(),
		idPrefix: "job-",
		node:     online.NewNode(cfg.Machine),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		drained:  make(chan struct{}),
	}
	s.table.reserve(0)
	if cfg.NodeID != "" {
		s.idPrefix = cfg.NodeID + "-job-"
		s.m.nodeInfo.Set(cfg.NodeID, 1)
	}
	s.setControl(control{cap: cfg.Cap, domains: cfg.Domains, policy: cfg.Policy})
	if cfg.Faults != nil {
		cfg.Faults.Subscribe(func(ev fault.Event) {
			s.m.faultHits.Inc(ev.Site)
			if ev.Injected {
				s.m.faultInjected.Inc(ev.Site)
			}
		})
	}
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
