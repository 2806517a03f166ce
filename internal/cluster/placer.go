// Package cluster is the placement library that scales the
// co-scheduling runtime from one APU node to a fleet: pure scoring over
// node snapshots, with no dependency on the simulation or scheduling
// stack (it imports the standard library only). The live coordinator
// in internal/fleet routes every arrival through a Placer, and so does
// the offline fleet study in internal/exp (EX-CLU), so "which node gets
// this job" is decided by exactly one piece of code whether the nodes
// are real daemons across a network or simulated in-process.
//
// The paper motivates job co-scheduling as "a cheap (virtually free)
// way to significantly improve system throughput for shared servers,
// workstation clusters, and data centers"; this package is the cluster
// piece of that story. It also exposes the interaction between
// balancing and co-scheduling: a balancer that spreads complementary
// jobs apart starves each node's co-run pairing opportunities, so the
// affinity-aware policy groups CPU- and GPU-preferred work — and the
// headroom-aware policy extends that to uneven per-node power budgets.
package cluster

import (
	"fmt"
	"strings"
)

// Balancer selects the node for each arriving job.
type Balancer int

// Balancing policies. The zero value is HeadroomAware, the
// fragmentation-aware default.
const (
	// HeadroomAware generalizes AffinityAware to live power headroom:
	// pending work is weighed against each node's share of the global
	// power budget (a node with twice the headroom drains twice as
	// fast), and the affinity tiebreak keeps each node's CPU/GPU mix
	// pairable so cap headroom is spent on co-runs instead of
	// fragmenting across one-sided backlogs.
	HeadroomAware Balancer = iota
	// RoundRobin assigns arrivals to nodes cyclically.
	RoundRobin
	// LeastLoaded assigns each arrival to the node with the least
	// pending work (sum of queued jobs' best solo times, estimated at
	// max frequency).
	LeastLoaded
	// AffinityAware is LeastLoaded with a tiebreak that balances each
	// node's mix of CPU- and GPU-preferred jobs, preserving co-run
	// pairing opportunities.
	AffinityAware
)

// String implements fmt.Stringer.
func (b Balancer) String() string {
	switch b {
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	case AffinityAware:
		return "affinity-aware"
	case HeadroomAware:
		return "headroom-aware"
	default:
		return fmt.Sprintf("Balancer(%d)", int(b))
	}
}

// ParseBalancer resolves a balancer name ("round-robin", "least-loaded",
// "affinity-aware", "headroom-aware"; the "-aware" suffix is optional).
func ParseBalancer(s string) (Balancer, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "round-robin", "roundrobin", "rr":
		return RoundRobin, nil
	case "least-loaded", "leastloaded":
		return LeastLoaded, nil
	case "affinity-aware", "affinity":
		return AffinityAware, nil
	case "headroom-aware", "headroom":
		return HeadroomAware, nil
	default:
		return 0, fmt.Errorf("cluster: unknown balancer %q (round-robin | least-loaded | affinity-aware | headroom-aware)", s)
	}
}

// NodeState is one candidate node's placement-relevant snapshot. The
// caller owns the bookkeeping: after a Pick it should fold the placed
// job into the chosen node's Load and BiasGPU (and, for a live fleet,
// refresh both from the node's own reporting on the next poll).
type NodeState struct {
	// Load is the node's pending work estimate, in whatever unit the
	// caller uses consistently (solo seconds offline, queued jobs live).
	Load float64
	// BiasGPU is the net device preference of the node's backlog:
	// +1 per GPU-preferred pending job, -1 per CPU-preferred one.
	BiasGPU float64
	// HeadroomW is the node's share of the global power budget, in
	// watts. Only HeadroomAware reads it; zero means "no headroom" and
	// makes the node maximally unattractive (but still eligible).
	HeadroomW float64
	// Unhealthy nodes are skipped entirely.
	Unhealthy bool
}

// JobHint describes one arriving job to the placer: its estimated
// standalone runtimes on each device (at max frequency, uncapped).
type JobHint struct {
	CPUTimeS float64
	GPUTimeS float64
}

// BiasGPU is the job's device preference: +1 GPU-preferred (ties go to
// the GPU, matching the offline balancer), -1 CPU-preferred.
func (h JobHint) BiasGPU() float64 {
	if h.CPUTimeS < h.GPUTimeS {
		return -1
	}
	return 1
}

// BestTimeS is the job's best solo time — the load it adds to the node
// that wins it.
func (h JobHint) BestTimeS() float64 {
	if h.CPUTimeS < h.GPUTimeS {
		return h.CPUTimeS
	}
	return h.GPUTimeS
}

// Placer picks nodes for arriving jobs under one balancing policy. It
// is not safe for concurrent use; callers serialize Picks (the fleet
// coordinator places one job at a time under its own lock).
type Placer struct {
	strategy Balancer
	next     int // round-robin cursor
}

// NewPlacer builds a placer for the given policy.
func NewPlacer(b Balancer) (*Placer, error) {
	switch b {
	case RoundRobin, LeastLoaded, AffinityAware, HeadroomAware:
		return &Placer{strategy: b}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown balancer %v", b)
	}
}

// Strategy returns the placer's balancing policy.
func (p *Placer) Strategy() Balancer { return p.strategy }

// Pick selects the node for one job, returning its index into nodes.
// Unhealthy nodes are never picked; if no node is healthy, Pick
// returns an error.
func (p *Placer) Pick(hint JobHint, nodes []NodeState) (int, error) {
	healthy := 0
	for _, n := range nodes {
		if !n.Unhealthy {
			healthy++
		}
	}
	if healthy == 0 {
		return 0, fmt.Errorf("cluster: no healthy node among %d", len(nodes))
	}
	switch p.strategy {
	case RoundRobin:
		for {
			i := p.next % len(nodes)
			p.next++
			if !nodes[i].Unhealthy {
				return i, nil
			}
		}
	case LeastLoaded:
		return argminLoad(nodes), nil
	case AffinityAware:
		return pickAffinity(hint, nodes, rawLoad), nil
	case HeadroomAware:
		return pickAffinity(hint, nodes, headroomLoad), nil
	}
	return 0, fmt.Errorf("cluster: unknown balancer %v", p.strategy)
}

// rawLoad and headroomLoad are the two load views the affinity scorer
// ranks by: pending work as-is, or pending work normalized by the
// node's power share (the "time to drain this backlog under my slice
// of the budget" view — a node with half the headroom is treated as
// twice as loaded).
func rawLoad(n NodeState) float64 { return n.Load }

func headroomLoad(n NodeState) float64 {
	// A powerless node drains arbitrarily slowly; clamp so the score
	// stays finite and such nodes rank strictly last.
	const minHeadroomW = 0.1
	h := n.HeadroomW
	if h < minHeadroomW {
		h = minHeadroomW
	}
	return n.Load / h
}

func argminLoad(nodes []NodeState) int {
	best := -1
	for i, n := range nodes {
		if n.Unhealthy {
			continue
		}
		if best < 0 || n.Load < nodes[best].Load {
			best = i
		}
	}
	return best
}

// pickAffinity is the shared affinity scorer: among nodes within 10%
// of the lightest (view-adjusted) load, pick the one whose backlog mix
// this job balances best — a GPU-preferred job prefers a CPU-heavy
// backlog and vice versa, preserving each node's co-run pairing
// opportunities.
func pickAffinity(hint JobHint, nodes []NodeState, view func(NodeState) float64) int {
	least := -1
	for i, n := range nodes {
		if n.Unhealthy {
			continue
		}
		if least < 0 || view(n) < view(nodes[least]) {
			least = i
		}
	}
	jobBias := hint.BiasGPU()
	minLoad := view(nodes[least])
	best := least
	bestScore := placeScore(minLoad, minLoad, nodes[least].BiasGPU, jobBias)
	for i, n := range nodes {
		if n.Unhealthy {
			continue
		}
		if view(n) > minLoad*1.1+1 {
			continue
		}
		if sc := placeScore(view(n), minLoad, n.BiasGPU, jobBias); sc < bestScore {
			bestScore, best = sc, i
		}
	}
	return best
}

// placeScore ranks a candidate node: load dominates, the affinity
// mismatch breaks ties (a GPU-preferred job prefers a CPU-heavy
// backlog and vice versa).
func placeScore(load, minLoad, bias, jobBias float64) float64 {
	rel := 0.0
	if minLoad > 0 {
		rel = (load - minLoad) / minLoad
	}
	return rel + 0.02*bias*jobBias
}
