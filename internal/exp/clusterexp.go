package exp

import (
	"fmt"
	"io"
	"sort"

	"corun/internal/apu"
	"corun/internal/cluster"
	"corun/internal/online"
	"corun/internal/units"
)

// ClusterRow is one fleet configuration's outcome.
type ClusterRow struct {
	Label        string
	Nodes        int
	Done         units.Seconds
	MeanResponse units.Seconds
	EnergyJ      float64
	Imbalance    float64
}

// ClusterResult is the fleet study (EX-CLU): the data-center setting
// the paper's introduction motivates. One bursty stream, three fleet
// sizes, three balancers, and the HCS+-vs-random per-node policy
// comparison.
type ClusterResult struct {
	Rows []ClusterRow
}

// serveFleet is EX-CLU's offline fleet of identical nodes: every arrival
// is placed by cluster.Placer on the standalone-time hints the live
// coordinator (internal/fleet) feeds it, then each node serves its
// share with the online epoch scheduler under its own 15 W cap (node n
// seeded 1+n). It returns the fleet summary (Label unset) and each
// node's result.
func (s *Suite) serveFleet(arrivals []online.Arrival, nodes int, bal cluster.Balancer, pol string) (ClusterRow, []*online.Result, error) {
	const capPerNode = 15
	if nodes <= 0 {
		return ClusterRow{}, nil, fmt.Errorf("exp: need at least one node, got %d", nodes)
	}
	placer, err := cluster.NewPlacer(bal)
	if err != nil {
		return ClusterRow{}, nil, err
	}
	sorted := append([]online.Arrival(nil), arrivals...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })

	share := make([][]online.Arrival, nodes)
	state := make([]cluster.NodeState, nodes)
	for n := range state {
		state[n].HeadroomW = capPerNode
	}
	cmax, gmax := s.maxFreqs()
	for _, a := range sorted {
		hint := cluster.JobHint{
			CPUTimeS: float64(a.Prog.StandaloneTime(apu.CPU, s.Cfg.Freq(apu.CPU, cmax), s.Mem, a.Scale)),
			GPUTimeS: float64(a.Prog.StandaloneTime(apu.GPU, s.Cfg.Freq(apu.GPU, gmax), s.Mem, a.Scale)),
		}
		n, err := placer.Pick(hint, state)
		if err != nil {
			return ClusterRow{}, nil, err
		}
		share[n] = append(share[n], a)
		state[n].Load += hint.BestTimeS()
		state[n].BiasGPU += hint.BiasGPU()
	}

	row := ClusterRow{Nodes: nodes}
	perNode := make([]*online.Result, nodes)
	var sumResp, jobs float64
	var first units.Seconds // earliest node finish
	for n := range perNode {
		opts := s.options(capPerNode)
		opts.Policy, opts.Seed = pol, 1+int64(n)
		r, err := online.Serve(opts, share[n])
		if err != nil {
			return ClusterRow{}, nil, fmt.Errorf("exp: fleet node %d: %w", n, err)
		}
		perNode[n] = r
		row.EnergyJ += r.EnergyJ
		for _, o := range r.Outcomes {
			sumResp += float64(o.Response())
			jobs++
		}
		if r.Done > row.Done {
			row.Done = r.Done
		}
		if n == 0 || r.Done < first {
			first = r.Done
		}
	}
	if jobs > 0 {
		row.MeanResponse = units.Seconds(sumResp / jobs)
	}
	if row.Done > 0 {
		// 0 is a perfectly balanced fleet.
		row.Imbalance = float64(row.Done-first) / float64(row.Done)
	}
	return row, perNode, nil
}

// Cluster runs the study.
func (s *Suite) Cluster() (*ClusterResult, error) {
	arrivals, err := online.GenerateArrivals(36, 6, 11)
	if err != nil {
		return nil, err
	}
	res := &ClusterResult{}
	for _, c := range []struct {
		label string
		nodes int
		bal   cluster.Balancer
		pol   string
	}{
		{"1-node hcs+ affinity", 1, cluster.AffinityAware, "hcs+"},
		{"2-node hcs+ affinity", 2, cluster.AffinityAware, "hcs+"},
		{"4-node hcs+ affinity", 4, cluster.AffinityAware, "hcs+"},
		{"3-node hcs+ round-robin", 3, cluster.RoundRobin, "hcs+"},
		{"3-node hcs+ least-loaded", 3, cluster.LeastLoaded, "hcs+"},
		{"3-node random affinity", 3, cluster.AffinityAware, "random"},
		{"3-node hcs+ affinity", 3, cluster.AffinityAware, "hcs+"},
	} {
		row, _, err := s.serveFleet(arrivals, c.nodes, c.bal, c.pol)
		if err != nil {
			return nil, err
		}
		row.Label = c.label
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteText renders the study.
func (r *ClusterResult) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "  %-24s %10s %14s %10s %10s\n",
		"configuration", "done(s)", "mean resp(s)", "energy(J)", "imbalance"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "  %-24s %10.1f %14.1f %10.0f %9.0f%%\n",
			row.Label, float64(row.Done), float64(row.MeanResponse), row.EnergyJ, 100*row.Imbalance); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "per-node co-scheduling compounds with fleet scaling; balancing policy is secondary.")
	return err
}
