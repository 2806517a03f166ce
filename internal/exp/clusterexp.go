package exp

import (
	"fmt"
	"io"

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

// Cluster runs the study.
func (s *Suite) Cluster() (*ClusterResult, error) {
	arrivals, err := online.GenerateArrivals(36, 6, 11)
	if err != nil {
		return nil, err
	}
	res := &ClusterResult{}
	run := func(label string, nodes int, bal cluster.Balancer, pol string) error {
		r, err := cluster.Serve(cluster.Options{
			Cfg: s.Cfg, Mem: s.Mem, Char: s.Char,
			Nodes: nodes, CapPerNode: 15, Balancer: bal, Policy: pol, Seed: 1,
		}, arrivals)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, ClusterRow{
			Label: label, Nodes: nodes, Done: r.Done,
			MeanResponse: r.MeanResponse, EnergyJ: r.TotalEnergyJ, Imbalance: r.Imbalance,
		})
		return nil
	}
	for _, n := range []int{1, 2, 4} {
		if err := run(fmt.Sprintf("%d-node hcs+ affinity", n), n, cluster.AffinityAware, online.PolicyHCSPlus); err != nil {
			return nil, err
		}
	}
	for _, bal := range []cluster.Balancer{cluster.RoundRobin, cluster.LeastLoaded} {
		if err := run("3-node hcs+ "+bal.String(), 3, bal, online.PolicyHCSPlus); err != nil {
			return nil, err
		}
	}
	if err := run("3-node random affinity", 3, cluster.AffinityAware, online.PolicyRandom); err != nil {
		return nil, err
	}
	if err := run("3-node hcs+ affinity", 3, cluster.AffinityAware, online.PolicyHCSPlus); err != nil {
		return nil, err
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
