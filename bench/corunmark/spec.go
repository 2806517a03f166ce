package main

import (
	"fmt"
	"math"
)

// metricDef names one reported number. BENCHMARK.json repeats these
// tables (the smoke test checks that the two agree).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression; per-layer
	// metrics have none.
	Bound float64
}

// endToEnd is what a user of the system sees; every workload reports
// all eight.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"trip_p50_ms", "ms", "lower", 0.25},
	{"trip_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_job", "ms", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"makespan_vs_bound", "ratio", "lower", 0.25},
	{"sched_overhead_pct", "%", "lower", 0.25},
}

// perLayer metrics are named <module>.<name>. A metric that does not
// apply to a workload (the journal on plan-fig11, the fleet on
// serve-ack) reads 0 there; README.md says which apply where.
var perLayer = []metricDef{
	{Name: "server.ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.status_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.polls_per_job", Unit: "count", Better: "lower"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "client.trip_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.jobs_per_epoch", Unit: "count", Better: "higher"},
	{Name: "server.epoch_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "server.epochs", Unit: "count", Better: "lower"},
	{Name: "journal.fsyncs_per_job", Unit: "count", Better: "lower"},
	{Name: "journal.records_per_commit", Unit: "count", Better: "higher"},
	{Name: "journal.appends_per_job", Unit: "count", Better: "lower"},
	{Name: "journal.bytes_per_job", Unit: "count", Better: "lower"},
	{Name: "journal.recovered_jobs", Unit: "count", Better: "higher"},
	{Name: "journal.recover_us_per_job", Unit: "us", Better: "lower"},
	{Name: "journal.crash_lost_acks", Unit: "count", Better: "lower"},
	{Name: "admission.preemptions_per_kjob", Unit: "count", Better: "lower"},
	{Name: "admission.share_pct.team-a", Unit: "%", Better: "higher"},
	{Name: "admission.share_pct.team-b", Unit: "%", Better: "higher"},
	{Name: "admission.share_pct.batch", Unit: "%", Better: "higher"},
	{Name: "sim.throttles_per_epoch", Unit: "count", Better: "lower"},
	{Name: "sim.max_temp_c", Unit: "C", Better: "lower"},
	{Name: "sim.makespan_sum_s", Unit: "s", Better: "lower"},
	{Name: "fleet.routed_max_share_pct", Unit: "%", Better: "lower"},
	{Name: "fleet.reroutes", Unit: "count", Better: "lower"},
	{Name: "fleet.proxy_errors", Unit: "count", Better: "lower"},
	{Name: "fleet.rebalances", Unit: "count", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.allocs_per_job", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_kb_per_job", Unit: "KB", Better: "lower"},
	// From the traced run only.
	{Name: "profile.collect_ms", Unit: "ms", Better: "lower"},
	{Name: "model.predictor_ms", Unit: "ms", Better: "lower"},
	{Name: "model.cache_hit_pct", Unit: "%", Better: "higher"},
	{Name: "model.queries_per_epoch", Unit: "count", Better: "lower"},
	{Name: "core.context_ms", Unit: "ms", Better: "lower"},
	{Name: "policy.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "core.predict_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "core.bound_ms", Unit: "ms", Better: "lower"},
	{Name: "client.post_ms", Unit: "ms", Better: "lower"},
	{Name: "client.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "client.poll_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.decode_us", Unit: "us", Better: "lower"},
	{Name: "admission.add_us", Unit: "us", Better: "lower"},
	{Name: "admission.select_us_per_job", Unit: "us", Better: "lower"},
	{Name: "journal.append1_us", Unit: "us", Better: "lower"},
	{Name: "journal.append16_us", Unit: "us", Better: "lower"},
	{Name: "journal.open_ms_per_kjob", Unit: "ms", Better: "lower"},
	{Name: "trace.replay_cpu_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "trace.coverage_pct", Unit: "%", Better: "higher"},
	{Name: "fleet.hop_p50_us", Unit: "us", Better: "lower"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "harness.host_slowdown", Unit: "ratio", Better: "lower"},
	{Name: "harness.seg_spread_pct.jobs_per_s", Unit: "%", Better: "lower"},
	{Name: "harness.seg_spread_pct.trip_p95_ms", Unit: "%", Better: "lower"},
}

// Sizes below are the work of one run at refSeconds, which is
// BENCHMARK.json's run_seconds: about that long on the 2-core sizing
// host. A run is fixed work, not fixed time, so both sides of a
// comparison do the same work; -seconds only rescales the counts.
const (
	refSeconds = 10

	segments = 7  // measured window = 7 segments of fixed job count
	boots    = 31 // cold boots behind setup_s on the daemon workloads (50 ms each, 90 for the fleet)
	restarts = 21 // restarts of each node behind recover_s on the daemon workloads

	setupRepeats   = 101 // set-ups from nothing behind setup_s on plan-fig11 (20 ms each)
	rebuildRepeats = 201 // planning-state rebuilds behind recover_s on plan-fig11 (8 ms each)

	capWatts     = 15.0 // node cap, and the reference cap of every bound
	boundEvery   = 20   // plan-fig11: every 20th epoch is compared with its lower bound, and replayed by the probe
	qualityEvery = 5    // daemon workloads: every 5th epoch is (their epochs are a few jobs each)

	tripDeadlineS = 10 // a job not terminal this long after its POST failed
)

// share is one entry of a seeded categorical mix.
type share struct {
	name     string
	priority string // tenants only
	weight   int
}

type workloadDef struct {
	name string
	why  string

	// Library path (plan-fig11): epochs per segment at refSeconds.
	epochsPerSegment int

	// Daemon path.
	nodeArgs       []string // corund flags of every node
	fleetNodes     int      // 0 = one daemon, else nodes behind a coordinator
	coordArgs      []string
	window         int // W: jobs a client submits back-to-back
	warmupJobs     int
	jobsPerSegment int
	crashSmoke     bool
	programs       []share // nil = the eight benchmarks, evenly
	tenants        []share // nil = the default tenant
}

var threeTenants = []share{
	{"team-a", "high", 3},
	{"team-b", "normal", 2},
	{"batch", "low", 1},
}

var tripNodeArgs = []string{
	"-policy", "hcs+", "-cap", "15", "-tmax", "45", "-max-batch", "16",
	"-epoch-gap", "5ms", "-max-queue", "1000000", "-fsync", "always",
	"-tenant-weights", "team-a=3,team-b=1,batch=0",
}

var workloads = []workloadDef{
	{
		name:             "plan-fig11",
		why:              "library path on the paper's Fig. 11 batch: policy+model+sim do all the work, server/journal/admission/fleet none, so a planner gain must show here and a serving-path change must not",
		epochsPerSegment: 320,
	},
	{
		name: "serve-ack",
		why:  "one corund under the random dispatcher: HTTP, admission, group-commit journal, job table and status reads do most of the work; leaves a large journal for recover_s to read",
		nodeArgs: []string{
			"-policy", "random", "-cap", "15", "-max-batch", "64",
			"-epoch-gap", "1ms", "-max-queue", "1000000", "-fsync", "always",
		},
		window:         64,
		warmupJobs:     1024,
		jobsPerSegment: 2048,
		crashSmoke:     true,
	},
	{
		name:           "serve-trip",
		why:            "one corund under hcs+, thermally bound, three tenants: the whole trip with every node-side layer live, CPU split between planner and serving path",
		nodeArgs:       tripNodeArgs,
		window:         16,
		warmupJobs:     640,
		jobsPerSegment: 1248,
		tenants:        threeTenants,
	},
	{
		name:       "fleet-trip",
		why:        "three nodes behind a coordinator, dwt2d half the stream: adds the proxy hop, placement and live cap pushes; against serve-trip it isolates what the coordinator costs",
		nodeArgs:   tripNodeArgs,
		fleetNodes: 3,
		coordArgs: []string{
			"-fleet-cap", "45", "-balancer", "headroom",
			"-health-interval", "100ms", "-rebalance-interval", "500ms",
		},
		window:         16,
		warmupJobs:     640,
		jobsPerSegment: 1008,
		tenants:        threeTenants,
		programs: []share{
			{name: "dwt2d", weight: 7}, {name: "streamcluster", weight: 1},
			{name: "cfd", weight: 1}, {name: "hotspot", weight: 1},
			{name: "srad", weight: 1}, {name: "lud", weight: 1},
			{name: "leukocyte", weight: 1}, {name: "heartwall", weight: 1},
		},
	},
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled rescales a reference count to the requested run length, in
// whole multiples of unit and never below min.
func scaled(n int, seconds float64, unit, min int) int {
	v := int(math.Round(float64(n)*seconds/refSeconds/float64(unit))) * unit
	if v < min {
		v = min
	}
	return v
}

// shareAt splits a repeated measurement over the points of a run (the
// edges of its segments) and returns how many repeats fall on point i.
// A boot takes tens of milliseconds and the host's speed drifts by the
// second, so repeats taken back-to-back all see one moment of it; taken
// across the run, their median sees what the window's metrics see.
func shareAt(total, points, i int) int {
	return total*(i+1)/points - total*i/points
}

// repeats shrinks a repeat count (boots, restarts) for runs shorter
// than the reference, so the smoke test stays short; at or above the
// reference length it is the constant.
func repeats(n int, seconds float64) int {
	if seconds >= refSeconds {
		return n
	}
	v := int(math.Ceil(float64(n) * seconds / refSeconds))
	if v < 3 {
		v = 3
	}
	return v
}
