package server

import (
	"corun/internal/policy"
	"corun/internal/promtext"
)

// metrics is the daemon's Prometheus-facing instrumentation, served
// from GET /metrics in the text exposition format.
type metrics struct {
	reg *promtext.Registry

	up           *promtext.Gauge
	queueDepth   *promtext.Gauge
	submitted    *promtext.Counter
	rejected     *promtext.Counter
	done         *promtext.Counter
	failed       *promtext.Counter
	deadlineMiss *promtext.Counter
	scheduled    *promtext.CounterVec
	epochs       *promtext.Counter
	epochCloses  *promtext.CounterVec
	energy       *promtext.Counter
	epochLatency *promtext.Histogram
	predMakespan *promtext.Gauge
	simMakespan  *promtext.Gauge
	capWatts     *promtext.Gauge
	capUtil      *promtext.Gauge
	simClock     *promtext.Gauge

	// Domain and thermal instrumentation: measured per-plane watts of
	// the most recent epoch, the configured plane caps, the heatsink
	// temperature, throttle events, and which constraint bound the run.
	domainWatts    *promtext.GaugeVec
	domainCapWatts *promtext.GaugeVec
	tempC          *promtext.Gauge
	planCap        *promtext.Gauge
	throttleTotal  *promtext.Counter
	binding        *promtext.GaugeVec

	// Journal instrumentation. Registered unconditionally so
	// dashboards see zeros (not absent series) on in-memory daemons.
	jlAppends           *promtext.Counter
	jlFsyncs            *promtext.Counter
	jlBytes             *promtext.Counter
	jlSnapshots         *promtext.Counter
	jlErrors            *promtext.Counter
	jlRecovered         *promtext.Gauge
	jlTruncated         *promtext.Gauge
	jlPreallocTail      *promtext.Gauge
	jlReplayed          *promtext.Gauge
	jlRecoverySeconds   *promtext.Gauge
	jlAppendLatency     *promtext.Histogram
	jlFsyncSeconds      *promtext.Histogram
	jlSyncWait          *promtext.Histogram
	jlPreallocFallbacks *promtext.Counter

	// Failure-handling instrumentation: journal write retries and
	// drops, the circuit breaker, load shedding, and the failpoint
	// registry's per-site counters.
	jlBatches      *promtext.Counter
	jlBatchRecords *promtext.Histogram

	jlRetries     *promtext.Counter
	jlDropped     *promtext.Counter
	jlSnapErrors  *promtext.Counter
	brkState      *promtext.Gauge
	brkTrips      *promtext.Counter
	shed          *promtext.Counter
	faultHits     *promtext.CounterVec
	faultInjected *promtext.CounterVec

	// Multi-tenant admission instrumentation: per-tenant queue depth,
	// admissions, and rejections, plus the preemption count and the
	// starvation signal (age of the oldest queued job).
	tenantQueued   *promtext.GaugeVec
	tenantAdmitted *promtext.CounterVec
	tenantRejected *promtext.CounterVec
	preemptions    *promtext.Counter
	oldestWait     *promtext.Gauge

	// Model instrumentation: the characterization's pair cache. In
	// steady state the interpolation counter stands still (every
	// program pair in service has its table), the table gauge sits
	// under the cache's bound, and the feasible-list gauge grows only
	// with a new program pair or a new cap.
	pairTables     *promtext.Gauge
	feasibleLists  *promtext.Gauge
	interpolations *promtext.Counter

	// nodeInfo is the build-info-style identity series: constant 1 with
	// the node's stable fleet ID as the label, so fleet-level dashboards
	// can attribute every other series scraped from this daemon. Only
	// set when Config.NodeID is configured.
	nodeInfo *promtext.GaugeVec
}

// journalSyncBuckets resolve the journal's two sub-millisecond waits —
// the commit syscall and the queue behind it — finely enough that a
// 50 µs shift in either moves a bucket.
var journalSyncBuckets = []float64{25e-6, 50e-6, 75e-6, 100e-6, 150e-6, 200e-6, 300e-6, 500e-6, 750e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 100e-3, 1}

func newMetrics() *metrics {
	reg := promtext.NewRegistry()
	m := &metrics{
		reg: reg,
		up: reg.NewGauge("corund_up",
			"1 while the scheduler loop accepts work, 0 once drained."),
		queueDepth: reg.NewGauge("corund_queue_depth",
			"Jobs admitted but not yet claimed by an epoch."),
		submitted: reg.NewCounter("corund_jobs_submitted_total",
			"Jobs accepted by POST /v1/jobs."),
		rejected: reg.NewCounter("corund_jobs_rejected_total",
			"Submissions rejected by admission control (full queue or draining)."),
		done: reg.NewCounter("corund_jobs_done_total",
			"Jobs that finished executing."),
		failed: reg.NewCounter("corund_jobs_failed_total",
			"Jobs whose epoch failed to schedule or execute."),
		deadlineMiss: reg.NewCounter("corund_deadline_misses_total",
			"Jobs with a deadline whose response time (arrival to completion, simulated) exceeded it."),
		scheduled: reg.NewCounterVec("corund_jobs_scheduled_total",
			"Jobs scheduled, by epoch policy.", "policy"),
		epochs: reg.NewCounter("corund_epochs_total",
			"Scheduling epochs completed."),
		epochCloses: reg.NewCounterVec("corund_epoch_closes_total",
			"Batching gaps ended, by what ended them: the gap elapsed (gap), an arrival left MaxBatch jobs on hand (full), or a drain (drain).", "reason"),
		energy: reg.NewCounter("corund_energy_joules_total",
			"Simulated package energy across all epochs."),
		epochLatency: reg.NewHistogram("corund_epoch_latency_seconds",
			"Wall-clock time to plan and execute one epoch.",
			[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}),
		predMakespan: reg.NewGauge("corund_predicted_makespan_seconds",
			"Model-predicted makespan of the most recent planned epoch."),
		simMakespan: reg.NewGauge("corund_simulated_makespan_seconds",
			"Simulated makespan of the most recent epoch."),
		capWatts: reg.NewGauge("corund_power_cap_watts",
			"Configured package power cap (0 = uncapped)."),
		capUtil: reg.NewGauge("corund_power_cap_utilization",
			"Most recent epoch's average power as a fraction of the cap."),
		simClock: reg.NewGauge("corund_sim_clock_seconds",
			"The node's scheduling clock (sum of epoch makespans)."),
		domainWatts: reg.NewGaugeVec("corund_domain_watts",
			"Most recent epoch's average power by RAPL-style plane (pp0 = CPU cores, pp1 = iGPU).", "domain"),
		domainCapWatts: reg.NewGaugeVec("corund_domain_cap_watts",
			"Configured per-plane power cap (0 = plane uncapped).", "domain"),
		tempC: reg.NewGauge("corund_temp_celsius",
			"Peak heatsink temperature of the most recent epoch (thermal RC model)."),
		planCap: reg.NewGauge("corund_plan_cap_watts",
			"Package cap the most recent epoch was planned under: the heatsink's budget cap when the thermal model binds below the configured cap, else the configured cap."),
		throttleTotal: reg.NewCounter("corund_throttle_total",
			"Thermal throttle events: frequency-ceiling steps taken at the trip point."),
		binding: reg.NewGaugeVec("corund_binding_constraint",
			"1 for the constraint that bound the most recent epoch (pp0, pp1, package, thermal, or none).", "constraint"),
		jlAppends: reg.NewCounter("corund_journal_appends_total",
			"Records appended to the durable state journal."),
		jlFsyncs: reg.NewCounter("corund_journal_fsyncs_total",
			"fsync syscalls issued by the journal (group commit shares one across concurrent appends)."),
		jlBytes: reg.NewCounter("corund_journal_bytes_total",
			"Framed bytes written to the journal log."),
		jlSnapshots: reg.NewCounter("corund_journal_snapshots_total",
			"Snapshot-plus-compaction cycles completed by the journal."),
		jlErrors: reg.NewCounter("corund_journal_errors_total",
			"Journal append failures for job lifecycle records (the epoch proceeds; durability of those records is lost)."),
		jlRecovered: reg.NewGauge("corund_journal_recovered_jobs",
			"Non-terminal jobs restored from the journal and re-enqueued at startup (not the jobs readable after it: terminal ones are restored too)."),
		jlTruncated: reg.NewGauge("corund_journal_truncated_tail_bytes",
			"Bytes of torn or corrupt log tail truncated during startup recovery."),
		jlPreallocTail: reg.NewGauge("corund_journal_preallocated_tail_bytes",
			"Bytes of zero tail trimmed during startup recovery: preallocation a process killed without a clean shutdown left behind."),
		jlReplayed: reg.NewGauge("corund_journal_replayed_records",
			"Log records replayed on top of the snapshot during startup recovery."),
		jlRecoverySeconds: reg.NewGauge("corund_journal_recovery_seconds",
			"Wall time of startup recovery: opening and replaying the journal, then restoring the job table and queues."),
		jlAppendLatency: reg.NewHistogram("corund_journal_append_latency_seconds",
			"Latency of journal appends, including any group-commit fsync wait.",
			[]float64{10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1}),
		jlFsyncSeconds: reg.NewHistogram("corund_journal_fsync_seconds",
			"Duration of the journal's commit syscall (fdatasync on Linux), one observation per corund_journal_fsyncs_total.",
			journalSyncBuckets),
		jlSyncWait: reg.NewHistogram("corund_journal_sync_wait_seconds",
			"Time a commit waited for the one ahead of it: an appender queued behind another appender's flush and fsync.",
			journalSyncBuckets),
		jlPreallocFallbacks: reg.NewCounter("corund_journal_prealloc_fallbacks_total",
			"Refused log preallocations (filesystem without fallocate, no space, injected): the log runs unreserved up to the next chunk boundary, as durable, each commit dearer."),
		jlBatches: reg.NewCounter("corund_journal_batches_total",
			"Journal commits: Append calls, each one write and at most one fsync (concurrent commits share fsyncs, see corund_journal_fsyncs_total)."),
		jlBatchRecords: reg.NewHistogram("corund_journal_batch_records",
			"Records per journal commit.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		jlRetries: reg.NewCounter("corund_journal_retries_total",
			"Journal write retries (backoff attempts past the first)."),
		jlDropped: reg.NewCounter("corund_journal_dropped_records_total",
			"Lifecycle records dropped because journaling failed past its retries or was suspended by the breaker."),
		jlSnapErrors: reg.NewCounter("corund_journal_snapshot_errors_total",
			"Failed snapshot-plus-compaction cycles (retried at the next threshold crossing)."),
		brkState: reg.NewGauge("corund_breaker_state",
			"Journal circuit breaker state: 0 closed, 1 half-open, 2 open."),
		brkTrips: reg.NewCounter("corund_breaker_trips_total",
			"Times the journal circuit breaker tripped open."),
		shed: reg.NewCounter("corund_jobs_shed_total",
			"Submissions shed with 503 + Retry-After while the daemon was degraded."),
		faultHits: reg.NewCounterVec("corund_fault_hits_total",
			"Failpoint hits at armed sites, by site.", "site"),
		faultInjected: reg.NewCounterVec("corund_fault_injections_total",
			"Failpoint hits on which a fault was injected, by site.", "site"),
		tenantQueued: reg.NewGaugeVec("corund_tenant_queued",
			"Jobs admitted but not yet claimed by an epoch, by tenant.", "tenant"),
		tenantAdmitted: reg.NewCounterVec("corund_tenant_admitted_total",
			"Jobs accepted by POST /v1/jobs, by tenant.", "tenant"),
		tenantRejected: reg.NewCounterVec("corund_tenant_rejected_total",
			"Submissions rejected by a full queue bound, by tenant.", "tenant"),
		preemptions: reg.NewCounter("corund_preemptions_total",
			"Claimed batch members requeued at an epoch boundary for a higher-priority arrival."),
		oldestWait: reg.NewGauge("corund_oldest_waiting_job_age_seconds",
			"Age of the oldest queued job (0 when the queue is empty); the starvation signal."),
		pairTables: reg.NewGauge("corund_model_pair_tables",
			"Per-program-pair degradation tables resident in the characterization's cache (0 without a characterization)."),
		feasibleLists: reg.NewGauge("corund_model_feasible_lists",
			"Per-program-pair, per-cap lists of cap-feasible operating points resident in the characterization's cache (0 without a characterization)."),
		interpolations: reg.NewCounter("corund_model_interpolations_total",
			"Staged interpolations computed into pair tables; stops growing once every program pair in service has its table."),
		nodeInfo: reg.NewGaugeVec("corund_node_info",
			"Constant 1, labeled with the daemon's stable fleet node ID (absent without -node-id).", "node"),
	}
	// Pre-register every policy's series so dashboards see zeros
	// instead of absent series before the first epoch.
	for _, p := range policy.Names() {
		m.scheduled.Add(p, 0)
	}
	for _, r := range []string{"gap", "full", "drain"} {
		m.epochCloses.Add(r, 0)
	}
	for _, d := range []string{"pp0", "pp1"} {
		m.domainWatts.Set(d, 0)
		m.domainCapWatts.Set(d, 0)
	}
	for _, c := range bindingConstraints {
		m.binding.Set(c, 0)
	}
	return m
}
