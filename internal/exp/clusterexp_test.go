package exp

import (
	"testing"

	"corun/internal/cluster"
	"corun/internal/online"
)

// These are EX-CLU's assertions on its offline fleet (serveFleet):
// placement by cluster.Placer, each node's share served by
// online.Serve under hcs+ at 15 W.

func fleetArrivals(t *testing.T, n int, gap float64, seed int64) []online.Arrival {
	t.Helper()
	as, err := online.GenerateArrivals(n, gap, seed)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func serveFleetT(t *testing.T, as []online.Arrival, nodes int, bal cluster.Balancer) (ClusterRow, []*online.Result) {
	t.Helper()
	row, perNode, err := testSuite(t).serveFleet(as, nodes, bal, "hcs+")
	if err != nil {
		t.Fatal(err)
	}
	return row, perNode
}

func TestFleetValidation(t *testing.T) {
	s := testSuite(t)
	as := fleetArrivals(t, 4, 10, 1)
	if _, _, err := s.serveFleet(as, 0, cluster.RoundRobin, "hcs+"); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, _, err := s.serveFleet(as, 2, cluster.Balancer(99), "hcs+"); err == nil {
		t.Error("unknown balancer accepted")
	}
	if _, _, err := s.serveFleet(as, 2, cluster.RoundRobin, "no-such-policy"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestFleetServesAllJobsAcrossNodes(t *testing.T) {
	row, perNode := serveFleetT(t, fleetArrivals(t, 18, 5, 2), 3, cluster.RoundRobin)
	// Round robin splits 18 jobs 6/6/6, and every node serves all of
	// its share.
	for n, r := range perNode {
		if len(r.Outcomes) != 6 {
			t.Errorf("node %d served %d jobs, want 6", n, len(r.Outcomes))
		}
	}
	if row.Nodes != 3 || row.Done <= 0 || row.MeanResponse <= 0 || row.EnergyJ <= 0 {
		t.Errorf("summary broken: %+v", row)
	}
}

// More nodes drain a bursty stream faster.
func TestFleetMoreNodesFaster(t *testing.T) {
	as := fleetArrivals(t, 16, 2, 3) // heavy burst
	one, _ := serveFleetT(t, as, 1, cluster.LeastLoaded)
	four, _ := serveFleetT(t, as, 4, cluster.LeastLoaded)
	if four.Done >= one.Done {
		t.Errorf("4 nodes (%v) should finish before 1 node (%v)", four.Done, one.Done)
	}
	if four.MeanResponse >= one.MeanResponse {
		t.Errorf("4 nodes mean response %v should beat 1 node %v", four.MeanResponse, one.MeanResponse)
	}
}

// Load-aware balancing is not meaningfully worse than round robin on
// response time or imbalance for skewed streams; usually better.
func TestFleetLeastLoadedBeatsRoundRobin(t *testing.T) {
	as := fleetArrivals(t, 20, 3, 5)
	rr, _ := serveFleetT(t, as, 3, cluster.RoundRobin)
	ll, _ := serveFleetT(t, as, 3, cluster.LeastLoaded)
	if float64(ll.MeanResponse) > float64(rr.MeanResponse)*1.1 {
		t.Errorf("least-loaded response %v clearly worse than round robin %v",
			ll.MeanResponse, rr.MeanResponse)
	}
	if ll.Imbalance > rr.Imbalance+0.15 {
		t.Errorf("least-loaded imbalance %.2f clearly worse than round robin %.2f",
			ll.Imbalance, rr.Imbalance)
	}
}

// The affinity-aware policy serves at least as well as plain
// least-loaded on mixed streams (it preserves co-run pairings).
func TestFleetAffinityAwareCompetitive(t *testing.T) {
	as := fleetArrivals(t, 24, 3, 7)
	ll, _ := serveFleetT(t, as, 3, cluster.LeastLoaded)
	aa, _ := serveFleetT(t, as, 3, cluster.AffinityAware)
	if float64(aa.MeanResponse) > float64(ll.MeanResponse)*1.15 {
		t.Errorf("affinity-aware response %v clearly worse than least-loaded %v",
			aa.MeanResponse, ll.MeanResponse)
	}
}

func TestFleetEmptyStream(t *testing.T) {
	row, perNode := serveFleetT(t, nil, 2, cluster.RoundRobin)
	if row.Done != 0 || len(perNode) != 2 {
		t.Errorf("empty stream: %+v, %d nodes", row, len(perNode))
	}
}
