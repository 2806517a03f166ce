// Package fleet shards corund into a power-partitioned multi-node
// cluster. A Coordinator fronts N independent corund daemons — each
// with its own journal, cap, admission selector, and epoch loop — and
// speaks the same /v1/* JSON API outward while routing inward over
// HTTP:
//
//   - Placement is fragmentation-aware: the coordinator scores nodes
//     with internal/cluster's Placer (headroom-aware by default),
//     weighing each node's pending backlog against its live share of
//     the global power budget and balancing CPU- vs GPU-preferred work
//     per node so cap headroom is spent on co-run pairings instead of
//     fragmenting across one-sided backlogs ("Power- and
//     Fragmentation-aware Online Scheduling for GPU Datacenters",
//     PAPERS.md, is the motivating placement objective).
//   - The global power budget is partitioned across nodes and
//     rebalanced as load shifts: every rebalance interval each healthy
//     node gets a floor plus a demand-proportional slice, applied live
//     through the nodes' POST /v1/cap.
//   - Routing is consistent: nodes mint job IDs under their own stable
//     identity ("<node-id>-job-%06d", corund's -node-id flag), so
//     GET /v1/jobs/{id} resolves its owning shard by longest ID-prefix
//     match — the same record whether asked via the coordinator or the
//     node directly, including after a node restarts and recovers from
//     its journal.
//   - Health is tracked per node by polling /readyz (which doubles as
//     the stats feed: identity, queue depth, applied cap); submissions
//     retry-or-reroute across the remaining healthy nodes when a node
//     fails, and a dead node 503s only its own shard's reads.
package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"corun/internal/apu"
	"corun/internal/cluster"
	"corun/internal/memsys"
	"corun/internal/server"
	"corun/internal/workload"
)

// floorWatts is the minimum power share a healthy node is ever
// assigned: above the default machine's minimum co-run power, so a
// floored node still schedules. Demand-proportional slices are handed
// out on top of the floors.
const floorWatts = 5

// healthFailures is how many consecutive probe transport errors take a
// node out of rotation; a well-formed not-ready answer takes effect
// immediately.
const healthFailures = 2

// NodeConfig names one member daemon: its stable identity (the
// corund -node-id, embedded in the jobs IDs it mints) and its base
// URL.
type NodeConfig struct {
	ID  string
	URL string
}

// ParseNodes parses the -nodes flag grammar: a comma list of id=url
// terms (e.g. "n0=http://127.0.0.1:8081,n1=http://127.0.0.1:8082").
// Bare URLs are assigned positional IDs n0, n1, ... — only correct if
// the daemons were started with matching -node-id values.
func ParseNodes(spec string) ([]NodeConfig, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("fleet: empty node list")
	}
	var out []NodeConfig
	for i, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			return nil, fmt.Errorf("fleet: empty node term")
		}
		id, url, ok := strings.Cut(term, "=")
		if !ok {
			id, url = fmt.Sprintf("n%d", i), term
		}
		out = append(out, NodeConfig{ID: strings.TrimSpace(id), URL: strings.TrimSpace(url)})
	}
	return out, nil
}

// Config configures a Coordinator.
type Config struct {
	// Nodes is the member set. IDs must be valid corund node IDs,
	// mutually distinct, and match each daemon's -node-id (verified on
	// every health probe; a mismatch keeps the node out of rotation).
	Nodes []NodeConfig

	// BudgetW is the fleet-wide power budget partitioned across healthy
	// nodes. 0 disables power management: nodes keep whatever cap they
	// were started with, and placement headroom falls back to the cap
	// each node reports on /readyz.
	BudgetW float64

	// Balancer picks the placement policy; the zero value is
	// cluster.HeadroomAware, the fragmentation-aware scorer.
	Balancer cluster.Balancer

	// Machine drives placement hints (standalone-time estimates at max
	// frequency under the default memory model — no characterization
	// needed); it defaults to the paper's Ivy Bridge-like node and
	// should match the members.
	Machine *apu.Config

	// HealthInterval is the /readyz poll period (default 500ms).
	HealthInterval time.Duration

	// RebalanceInterval is the power-budget repartition period
	// (default 2s). Ignored when BudgetW is 0.
	RebalanceInterval time.Duration

	// RequestTimeout is the per-request deadline on the coordinator's
	// own API (default 0 = none). Every call to a node is bounded by it
	// and by upstreamTimeout, whichever ends first.
	RequestTimeout time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Machine == nil {
		out.Machine = apu.DefaultConfig()
	}
	if out.HealthInterval == 0 {
		out.HealthInterval = 500 * time.Millisecond
	}
	if out.RebalanceInterval == 0 {
		out.RebalanceInterval = 2 * time.Second
	}
	return out
}

// Coordinator fronts the fleet: it owns the member table, the placer,
// the power-budget partition, and the outward /v1/* API.
type Coordinator struct {
	cfg Config
	mem *memsys.Model
	m   *metrics

	mu      sync.Mutex
	members []*member
	placer  *cluster.Placer
	budgetW float64

	cmax, gmax int // cached max frequency indices for placement hints

	stop     chan struct{}
	stopOnce sync.Once
	started  sync.Once
}

// New validates the configuration and builds a coordinator. Call
// Start to launch the health and rebalance loops.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("fleet: no nodes configured")
	}
	if cfg.BudgetW < 0 {
		return nil, fmt.Errorf("fleet: negative power budget %g", cfg.BudgetW)
	}
	placer, err := cluster.NewPlacer(cfg.Balancer)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		mem:     memsys.Default(),
		m:       newMetrics(),
		placer:  placer,
		budgetW: cfg.BudgetW,
		stop:    make(chan struct{}),
		cmax:    cfg.Machine.MaxFreqIndex(apu.CPU),
		gmax:    cfg.Machine.MaxFreqIndex(apu.GPU),
	}
	// Two URLs that dial the same address under the same base path are
	// one daemon, however they are spelled (a trailing slash, an
	// explicit :80).
	seenID, seenDaemon := map[string]bool{}, map[string]bool{}
	for _, nc := range cfg.Nodes {
		if nc.ID == "" || server.ValidateNodeID(nc.ID) != nil {
			return nil, fmt.Errorf("fleet: invalid node ID %q", nc.ID)
		}
		up, err := newUpstream(nc.URL)
		if err != nil {
			return nil, fmt.Errorf("fleet: node %s: %w", nc.ID, err)
		}
		daemon := up.addr + up.base
		if seenID[nc.ID] || seenDaemon[daemon] {
			return nil, fmt.Errorf("fleet: duplicate node %s (%s)", nc.ID, nc.URL)
		}
		seenID[nc.ID], seenDaemon[daemon] = true, true
		c.members = append(c.members, &member{
			id:  nc.ID,
			url: strings.TrimRight(nc.URL, "/"),
			up:  up,
		})
	}
	c.m.nodes.Set(float64(len(c.members)))
	c.m.budget.Set(c.budgetW)
	return c, nil
}

// Start probes every node once (synchronously, so routing can begin
// against whatever is already up) and launches the health and
// rebalance loops. Idempotent.
func (c *Coordinator) Start(ctx context.Context) {
	c.started.Do(func() {
		c.probeAll(ctx)
		c.rebalance(ctx)
		go c.healthLoop(ctx)
		if c.cfg.BudgetW > 0 {
			go c.rebalanceLoop(ctx)
		}
	})
}

// Stop ends the background loops and closes the idle connections to
// the nodes; idempotent.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() {
		close(c.stop)
		for _, mb := range c.members {
			mb.up.closeIdle()
		}
	})
}

// HealthyNodes counts members currently in rotation.
func (c *Coordinator) HealthyNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, mb := range c.members {
		if mb.healthy {
			n++
		}
	}
	return n
}

// BudgetW returns the fleet-wide power budget.
func (c *Coordinator) BudgetW() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budgetW
}

// SetBudgetW changes the fleet-wide power budget and repartitions it
// immediately.
func (c *Coordinator) SetBudgetW(ctx context.Context, w float64) error {
	if w < 0 {
		return fmt.Errorf("fleet: negative power budget %g", w)
	}
	c.mu.Lock()
	c.budgetW = w
	c.mu.Unlock()
	c.m.budget.Set(w)
	if w > 0 {
		c.rebalance(ctx)
	}
	return nil
}

// healthLoop drives the periodic /readyz probes.
func (c *Coordinator) healthLoop(ctx context.Context) {
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll(ctx)
		}
	}
}

// rebalanceLoop repartitions the power budget as load shifts.
func (c *Coordinator) rebalanceLoop(ctx context.Context) {
	t := time.NewTicker(c.cfg.RebalanceInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.stop:
			return
		case <-t.C:
			c.rebalance(ctx)
		}
	}
}

// hintFor estimates a job's standalone runtimes on each device at max
// frequency — the placement signal. No characterization is needed:
// the analytic kernel model answers directly.
func (c *Coordinator) hintFor(spec workload.JobSpec) (cluster.JobHint, error) {
	prog, err := workload.ByName(spec.Program)
	if err != nil {
		return cluster.JobHint{}, err
	}
	scale := spec.Scale
	if scale <= 0 {
		scale = 1
	}
	return cluster.JobHint{
		CPUTimeS: float64(prog.StandaloneTime(apu.CPU, c.cfg.Machine.Freq(apu.CPU, c.cmax), c.mem, scale)),
		GPUTimeS: float64(prog.StandaloneTime(apu.GPU, c.cfg.Machine.Freq(apu.GPU, c.gmax), c.mem, scale)),
	}, nil
}

// ListenAndServe runs the coordinator at addr until ctx is cancelled.
func (c *Coordinator) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	c.Start(ctx)
	srv := &http.Server{Handler: c.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return fmt.Errorf("fleet: listener failed: %w", err)
	case <-ctx.Done():
	}
	c.Stop()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(shutCtx)
}
