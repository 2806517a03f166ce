// Command corund is the co-run scheduler daemon: a long-running HTTP
// service that queues jobs at a simulated power-capped APU node and
// co-schedules them in epochs with the paper's HCS+/HCS heuristics.
//
// Usage:
//
//	corund [-addr :8080] [-cap watts] [-cap-pp0 watts] [-cap-pp1 watts]
//	       [-tmax celsius] [-policy name] [-node-id id]
//	       [-machine ivybridge|kaveri] [-max-queue n] [-epoch-gap dur]
//	       [-tenant-queue n] [-tenant-weights tenant=w,...] [-max-batch n]
//	       [-char file] [-save-char file] [-seed n]
//	       [-data-dir dir] [-fsync always|never]
//	       [-request-timeout dur] [-fault-spec spec]
//
//	corund -coordinator -nodes n0=http://h0:8081,n1=http://h1:8082,...
//	       [-addr :8080] [-fleet-cap watts]
//	       [-balancer headroom|affinity|leastloaded|roundrobin]
//	       [-health-interval dur] [-rebalance-interval dur]
//	       [-request-timeout dur]
//
// -node-id gives the daemon a stable fleet identity: job IDs are
// minted as "<node-id>-job-%06d" (so a fleet coordinator can route
// GET /v1/jobs/{id} to the owning shard by prefix), /readyz reports
// the identity, and /metrics exposes it as corund_node_info{node}.
//
// -coordinator switches the binary into fleet-coordinator mode
// (internal/fleet): instead of scheduling jobs itself, it fronts the
// corund daemons listed in -nodes with the same /v1/* API, places
// each submission with the fragmentation-aware balancer, partitions
// -fleet-cap watts across the nodes by demand on top of a 5 W floor
// per healthy node (rebalanced every -rebalance-interval; 0 = leave
// node caps alone), tracks node health by polling /readyz (two failed
// probes in a row take a node out of rotation), and reroutes around
// failed nodes. See
// internal/fleet for the API surface (notably GET /v1/nodes, the
// fleet dashboard).
//
// The epoch policy is any row of the policy registry, by name or
// alias — the planners (hcs+, hcs, optimal, anneal, genetic) and the
// paper's dispatcher-driven baselines (random, default = default-gpu,
// default-cpu) alike; GET /v1/policies lists them and POST /v1/policy
// hot-swaps the active one.
//
// Jobs may carry a tenant and a priority class (low | normal | high);
// the admission layer drains tenants under weighted fair queueing.
// -tenant-weights sets per-tenant WFQ weights (unlisted tenants weigh
// 1; 0 pins a tenant to the starvation floor), -tenant-queue bounds
// each tenant's queued jobs on top of -max-queue (the 429 body names
// whichever bound was hit), and -max-batch bounds how many jobs one
// epoch claims — which is what lets a high-priority arrival preempt
// the lowest-priority claimed job at the epoch boundary.
//
// The micro-benchmark characterization (the offline stage of the
// paper) runs at startup unless -char points at a file saved earlier
// with -save-char, the deployment shape where one characterization is
// shared across a fleet.
//
// With -data-dir the daemon is durable: every acknowledged state
// change is journaled (write-ahead log + snapshots, see
// internal/journal), and restarting against the same directory
// restores the power cap, active policy, and job table, re-enqueuing
// every non-terminal job. -fsync picks the durability/latency
// trade-off: always (default) acknowledges a change only once it is
// fsynced, never leaves flushing to the OS (a process crash loses
// nothing, a machine crash what the kernel had not written back).
// Without -data-dir the daemon keeps its original in-memory
// behaviour.
//
// Journal writes that fail transiently are retried three times, with
// backoff doubling from 5ms toward 250ms under ±20% jitter. Five
// commits in a row that fail past their retries trip a circuit breaker
// into a documented degraded mode: journaling is suspended, /readyz
// reports "degraded", and submissions and cap/policy changes are shed
// with 503 + Retry-After until a probe write succeeds after a 2s
// cooldown. Acknowledged jobs are never lost — the daemon refuses work
// it cannot make durable rather than acking it, and a failed fsync is
// retried by writing the records afresh, never by syncing again.
// -request-timeout puts a per-request deadline on the routes that
// journal (POST /v1/jobs, /v1/cap, /v1/policy), reading the body
// included; a 503 for it means nothing was admitted or changed, and a
// commit already under way finishes and answers. In -coordinator mode
// it bounds every request, reading its body and the calls to the nodes
// included.
//
// -fault-spec arms the deterministic failpoint registry
// (internal/fault) for resilience testing, e.g.
//
//	corund -data-dir /tmp/d -fault-spec 'journal/fsync=error(every=3,times=10)'
//
// Sites: journal/append, journal/fsync, journal/snapshot,
// journal/prealloc, server/admit, server/epoch, policy/plan. Kinds: error(msg,...),
// latency(dur,...), panic(...), drop(msg,...) (an error that also cuts
// the log back to its last durable offset at journal/fsync); schedule
// args every=N, after=N, times=K, p=F, seed=S. Per-site hit and
// injection counts are exported as corund_fault_hits_total /
// corund_fault_injections_total.
//
// Endpoints: POST /v1/jobs, GET /v1/jobs[/{id}], GET /v1/plan,
// GET|POST /v1/cap, GET /v1/policies, POST /v1/policy, GET /v1/trace,
// GET /healthz (liveness), GET /readyz (readiness), GET /metrics
// (Prometheus text format).
//
// SIGINT/SIGTERM drain gracefully: admission stops (/readyz turns
// 503), the in-flight epoch completes, the queue is flushed, the
// journal is fsynced, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"corun/internal/admission"
	"corun/internal/apu"
	"corun/internal/cluster"
	"corun/internal/fault"
	"corun/internal/fleet"
	"corun/internal/journal"
	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/policy"
	"corun/internal/server"
	"corun/internal/units"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	capW := flag.Float64("cap", 15, "package power cap in watts (0 = uncapped)")
	capPP0 := flag.Float64("cap-pp0", 0, "PP0 (CPU core) plane power cap in watts (0 = plane uncapped)")
	capPP1 := flag.Float64("cap-pp1", 0, "PP1 (iGPU) plane power cap in watts (0 = plane uncapped)")
	tmax := flag.Float64("tmax", 0, "thermal trip point in Celsius overriding the machine preset (0 = keep the preset)")
	nodeID := flag.String("node-id", "", "stable fleet node identity (prefixes minted job IDs; empty = standalone)")
	coordinator := flag.Bool("coordinator", false, "run as a fleet coordinator over the daemons in -nodes instead of scheduling locally")
	nodesFlag := flag.String("nodes", "", "coordinator mode: comma list of member daemons, id=url,...")
	fleetCap := flag.Float64("fleet-cap", 0, "coordinator mode: fleet-wide power budget partitioned across nodes (0 = leave node caps alone)")
	balancerFlag := flag.String("balancer", "headroom", "coordinator mode: placement policy: roundrobin | leastloaded | affinity | headroom")
	healthInterval := flag.Duration("health-interval", 500*time.Millisecond, "coordinator mode: node /readyz poll period")
	rebalanceInterval := flag.Duration("rebalance-interval", 2*time.Second, "coordinator mode: power budget repartition period")
	policyFlag := flag.String("policy", "hcs+", "epoch scheduling policy: "+strings.Join(policy.Names(), " | "))
	machine := flag.String("machine", "ivybridge", "machine preset: ivybridge | kaveri")
	maxQueue := flag.Int("max-queue", 256, "admission control: max queued jobs before 429")
	tenantQueue := flag.Int("tenant-queue", 0, "admission control: per-tenant queue bound (0 = none)")
	tenantWeights := flag.String("tenant-weights", "", "weighted fair queueing weights, tenant=w,... (unlisted tenants weigh 1)")
	maxBatch := flag.Int("max-batch", 0, "jobs claimed per epoch (0 = unbounded; a bound enables priority preemption)")
	epochGap := flag.Duration("epoch-gap", 50*time.Millisecond, "batching window before each scheduling epoch")
	charFile := flag.String("char", "", "load the characterization from this file instead of measuring")
	saveChar := flag.String("save-char", "", "save the measured characterization to this file")
	seed := flag.Int64("seed", 1, "seed for refinement sampling and the random policy")
	dataDir := flag.String("data-dir", "", "durable state journal directory (empty = in-memory only)")
	fsync := flag.String("fsync", "always", "journal fsync policy: always | never")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second, "per-request deadline on the journaling routes, every route with -coordinator; a deadline 503 changed nothing (0 = none)")
	faultSpec := flag.String("fault-spec", "", "arm deterministic failpoints, e.g. 'journal/fsync=error(every=3,times=5);policy/plan=latency(50ms,p=0.5,seed=7)'")
	flag.Parse()

	if *coordinator {
		runCoordinator(*addr, *nodesFlag, *fleetCap, *balancerFlag,
			*machine, *healthInterval, *rebalanceInterval, *reqTimeout)
		return
	}

	cfg, err := buildConfig(*machine, *policyFlag, *capW, *maxQueue, *epochGap, *seed, *charFile, *saveChar, *dataDir, *fsync, *tmax)
	if err != nil {
		log.Fatalf("corund: %v", err)
	}
	cfg.Domains = apu.DomainCaps{PP0: units.Watts(*capPP0), PP1: units.Watts(*capPP1)}
	weights, err := admission.ParseWeights(*tenantWeights)
	if err != nil {
		log.Fatalf("corund: -tenant-weights: %v", err)
	}
	cfg.TenantWeights = weights
	cfg.TenantQueue = *tenantQueue
	cfg.MaxBatch = *maxBatch
	cfg.RequestTimeout = *reqTimeout
	cfg.NodeID = *nodeID
	if *faultSpec != "" {
		if err := fault.Default.ArmSpec(*faultSpec); err != nil {
			log.Fatalf("corund: -fault-spec: %v", err)
		}
		log.Printf("corund: failpoints armed: %s", *faultSpec)
	}
	s, err := server.New(*cfg)
	if err != nil {
		log.Fatalf("corund: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	durability := "in-memory"
	if cfg.DataDir != "" {
		rec := s.Recovery()
		snapshot := "no"
		if rec.SnapshotLoaded {
			snapshot = "yes"
		}
		const tenthMs = 100 * time.Microsecond
		log.Printf("corund: recovered %d jobs (%d records replayed, snapshot %s, %d slow-path decodes, %d bytes truncated, %d preallocated bytes trimmed, %d re-queued) in %v (journal open %v)",
			rec.Jobs, rec.RecordsReplayed, snapshot, rec.SlowPathRecords, rec.TruncatedTailBytes, rec.PreallocatedTailBytes, rec.Requeued,
			rec.Total.Round(tenthMs), rec.JournalOpen.Round(tenthMs))
		// The server may have recovered a different cap/policy than
		// the flags; report what it actually runs with.
		durability = fmt.Sprintf("journal %s, fsync %s", cfg.DataDir, cfg.Fsync)
	}
	identity := ""
	if cfg.NodeID != "" {
		identity = fmt.Sprintf("node %s, ", cfg.NodeID)
	}
	log.Printf("corund: serving on %s (%spolicy %s, cap %gW, queue bound %d, %s)",
		*addr, identity, s.Policy(), float64(s.Cap()), cfg.MaxQueue, durability)
	if err := s.ListenAndServe(ctx, *addr); err != nil {
		log.Fatalf("corund: %v", err)
	}
	log.Printf("corund: drained cleanly")
}

// runCoordinator is -coordinator mode: the binary becomes the fleet
// front door (internal/fleet) instead of a scheduling node. No
// characterization runs — placement hints come straight from the
// analytic kernel model.
func runCoordinator(addr, nodesSpec string, fleetCap float64, balancer, machine string,
	healthInterval, rebalanceInterval, reqTimeout time.Duration) {
	nodes, err := fleet.ParseNodes(nodesSpec)
	if err != nil {
		log.Fatalf("corund: -nodes: %v", err)
	}
	bal, err := cluster.ParseBalancer(balancer)
	if err != nil {
		log.Fatalf("corund: -balancer: %v", err)
	}
	mcfg, err := machineByName(machine, 0)
	if err != nil {
		log.Fatalf("corund: %v", err)
	}
	co, err := fleet.New(fleet.Config{
		Nodes:             nodes,
		BudgetW:           fleetCap,
		Balancer:          bal,
		Machine:           mcfg,
		HealthInterval:    healthInterval,
		RebalanceInterval: rebalanceInterval,
		RequestTimeout:    reqTimeout,
	})
	if err != nil {
		log.Fatalf("corund: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	budget := "node caps unmanaged"
	if fleetCap > 0 {
		budget = fmt.Sprintf("budget %gW", fleetCap)
	}
	log.Printf("corund: coordinating %d nodes on %s (balancer %s, %s)",
		len(nodes), addr, bal, budget)
	if err := co.ListenAndServe(ctx, addr); err != nil {
		log.Fatalf("corund: %v", err)
	}
	log.Printf("corund: coordinator stopped")
}

// machineByName resolves a -machine preset; a non-zero tmaxC overrides
// its thermal trip point on a private copy (the presets are shared
// package globals).
func machineByName(name string, tmaxC float64) (*apu.Config, error) {
	var mcfg *apu.Config
	switch strings.ToLower(name) {
	case "ivybridge", "":
		mcfg = apu.DefaultConfig()
	case "kaveri":
		mcfg = apu.KaveriConfig()
	default:
		return nil, fmt.Errorf("unknown machine %q", name)
	}
	if tmaxC != 0 {
		tp := mcfg.Thermal
		tp.TMaxC = tmaxC
		if err := tp.Validate(); err != nil {
			return nil, fmt.Errorf("-tmax: %w", err)
		}
		mcfg = mcfg.WithThermal(tp)
	}
	return mcfg, nil
}

// buildConfig assembles the server configuration: machine preset,
// policy, the characterization (measured, or loaded from a file),
// and the durability options.
func buildConfig(machine, policyName string, capW float64, maxQueue int, epochGap time.Duration, seed int64, charFile, saveChar, dataDir, fsync string, tmaxC float64) (*server.Config, error) {
	mcfg, err := machineByName(machine, tmaxC)
	if err != nil {
		return nil, err
	}
	pol, err := policy.Canonical(policyName)
	if err != nil {
		return nil, err
	}
	fsyncPol, err := journal.ParseFsyncPolicy(fsync)
	if err != nil {
		return nil, err
	}
	mem := memsys.Default()

	char, err := loadOrMeasureChar(charFile, saveChar, mcfg, mem)
	if err != nil {
		return nil, err
	}
	return &server.Config{
		Machine:  mcfg,
		Char:     char,
		Cap:      units.Watts(capW),
		Policy:   pol,
		Seed:     seed,
		MaxQueue: maxQueue,
		EpochGap: epochGap,
		DataDir:  dataDir,
		Fsync:    fsyncPol,
	}, nil
}

func loadOrMeasureChar(charFile, saveChar string, mcfg *apu.Config, mem *memsys.Model) (*model.Characterization, error) {
	if charFile != "" {
		f, err := os.Open(charFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		char, err := model.LoadCharacterization(f, mcfg)
		if err != nil {
			return nil, fmt.Errorf("loading characterization: %w", err)
		}
		log.Printf("corund: loaded characterization from %s", charFile)
		return char, nil
	}
	start := time.Now()
	char, err := model.Characterize(model.CharacterizeOptions{Cfg: mcfg, Mem: mem})
	if err != nil {
		return nil, err
	}
	log.Printf("corund: characterized the degradation space in %v", time.Since(start).Round(time.Millisecond))
	if saveChar != "" {
		f, err := os.Create(saveChar)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := char.Save(f); err != nil {
			return nil, fmt.Errorf("saving characterization: %w", err)
		}
		log.Printf("corund: saved characterization to %s", saveChar)
	}
	return char, nil
}
