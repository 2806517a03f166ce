package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"corun/internal/cluster"
	"corun/internal/fleet"
	"corun/internal/server"
)

// testNode is one in-process corund daemon behind a real TCP
// listener (the coordinator talks HTTP, so httptest is not enough —
// the restart test needs to re-listen on the same port).
type testNode struct {
	id      string
	dataDir string
	s       *server.Server
	srv     *http.Server
	addr    string
	url     string
	stopped bool
}

// startNode launches a daemon with the random policy (no
// characterization needed) and a fast epoch loop. addr "" picks a
// fresh loopback port; passing a previous node's addr re-listens on
// it, which is how a restarted node keeps its URL.
func startNode(t testing.TB, id, dataDir, addr string) *testNode {
	t.Helper()
	s, err := server.New(server.Config{
		Cap:      15,
		Policy:   "random",
		Seed:     1,
		EpochGap: 2 * time.Millisecond,
		NodeID:   id,
		DataDir:  dataDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if attempt > 50 {
			t.Fatalf("listening on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond) // a just-closed port can linger briefly
	}
	s.Start(context.Background())
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	n := &testNode{
		id: id, dataDir: dataDir, s: s, srv: srv,
		addr: ln.Addr().String(), url: "http://" + ln.Addr().String(),
	}
	t.Cleanup(func() { n.kill() })
	return n
}

// stopGracefully drains and closes the node — the clean restart path,
// which flushes the journal.
func (n *testNode) stopGracefully(t testing.TB) {
	t.Helper()
	if n.stopped {
		return
	}
	n.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.s.DrainAndWait(ctx); err != nil {
		t.Fatalf("draining %s: %v", n.id, err)
	}
	if err := n.s.Close(); err != nil {
		t.Fatalf("closing %s: %v", n.id, err)
	}
	n.srv.Close()
}

// kill drops the node abruptly: listener and connections die, the
// scheduler goroutine is left to the process exit — the crash path.
func (n *testNode) kill() {
	if n.stopped {
		return
	}
	n.stopped = true
	n.srv.Close()
	n.s.Close()
}

// startFleet fronts the nodes with a coordinator on fast intervals
// and waits for every node to enter rotation.
func startFleet(t testing.TB, nodes []*testNode, budgetW float64) (*fleet.Coordinator, string) {
	t.Helper()
	cfgNodes := make([]fleet.NodeConfig, len(nodes))
	for i, n := range nodes {
		cfgNodes[i] = fleet.NodeConfig{ID: n.id, URL: n.url}
	}
	co, err := fleet.New(fleet.Config{
		Nodes:             cfgNodes,
		BudgetW:           budgetW,
		HealthInterval:    50 * time.Millisecond,
		RebalanceInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	co.Start(ctx)
	t.Cleanup(func() { cancel(); co.Stop() })
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)
	waitFor(t, 5*time.Second, func() bool { return co.HealthyNodes() == len(nodes) },
		"all nodes healthy")
	return co, ts.URL
}

func waitFor(t testing.TB, within time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func submitJob(t testing.TB, baseURL, program string) (string, int) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"program": %q}`, program)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return "", resp.StatusCode
	}
	var j struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &j); err != nil || j.ID == "" {
		t.Fatalf("submit: bad body %s", body)
	}
	return j.ID, resp.StatusCode
}

func getStatus(t testing.TB, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestParseNodes(t *testing.T) {
	nodes, err := fleet.ParseNodes("n0=http://a:1, n1=http://b:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].ID != "n0" || nodes[1].URL != "http://b:2" {
		t.Fatalf("ParseNodes = %+v", nodes)
	}
	nodes, err = fleet.ParseNodes("http://a:1,http://b:2")
	if err != nil {
		t.Fatal(err)
	}
	if nodes[0].ID != "n0" || nodes[1].ID != "n1" {
		t.Fatalf("bare URLs should get positional IDs, got %+v", nodes)
	}
	for _, bad := range []string{"", "  ", "a=http://x,,b=http://y"} {
		if _, err := fleet.ParseNodes(bad); err == nil {
			t.Errorf("ParseNodes(%q) should fail", bad)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	base := func() fleet.Config {
		return fleet.Config{Nodes: []fleet.NodeConfig{{ID: "n0", URL: "http://a:1"}}}
	}
	if _, err := fleet.New(base()); err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
	bad := base()
	bad.Nodes = nil
	if _, err := fleet.New(bad); err == nil {
		t.Error("empty node set accepted")
	}
	bad = base()
	bad.Nodes = append(bad.Nodes, fleet.NodeConfig{ID: "n0", URL: "http://b:2"})
	if _, err := fleet.New(bad); err == nil {
		t.Error("duplicate node ID accepted")
	}
	// One daemon spelled twice: same dial address, same base path.
	for _, urls := range [][2]string{
		{"http://127.0.0.1:9", "http://127.0.0.1:9"},
		{"http://127.0.0.1:9", "http://127.0.0.1:9/"},
		{"http://localhost", "http://localhost:80"},
		{"http://a:1/corund", "http://a:1/corund/"},
	} {
		cfg := fleet.Config{Nodes: []fleet.NodeConfig{{ID: "n0", URL: urls[0]}, {ID: "n1", URL: urls[1]}}}
		if _, err := fleet.New(cfg); err == nil {
			t.Errorf("%s and %s, one daemon, accepted as two nodes", urls[0], urls[1])
		}
	}
	// Different base paths behind one address are different daemons.
	two := fleet.Config{Nodes: []fleet.NodeConfig{{ID: "n0", URL: "http://a:1/x"}, {ID: "n1", URL: "http://a:1/y"}}}
	if _, err := fleet.New(two); err != nil {
		t.Errorf("two base paths on one address refused: %v", err)
	}
	bad = base()
	bad.Nodes[0].URL = "ftp://a:1"
	if _, err := fleet.New(bad); err == nil {
		t.Error("non-http URL accepted")
	}
	bad = base()
	bad.Nodes[0].URL = "https://a:1"
	if _, err := fleet.New(bad); err == nil || !strings.Contains(err.Error(), "plain HTTP") {
		t.Errorf("https URL: err = %v, want a refusal saying corund serves plain HTTP", err)
	}
	bad = base()
	bad.Nodes[0].ID = "has spaces"
	if _, err := fleet.New(bad); err == nil {
		t.Error("invalid node ID accepted")
	}
	bad = base()
	bad.BudgetW = -1
	if _, err := fleet.New(bad); err == nil {
		t.Error("negative budget accepted")
	}
}

// TestBalancerIsWhatWasAsked: the coordinator places with the balancer
// its Config names, with or without a fleet budget, and the zero
// Balancer is headroom-aware. GET /v1/nodes reports the one in force.
func TestBalancerIsWhatWasAsked(t *testing.T) {
	for _, tc := range []struct {
		budgetW float64
		bal     cluster.Balancer
		want    string
	}{
		{45, cluster.RoundRobin, "round-robin"},
		{45, cluster.LeastLoaded, "least-loaded"},
		{0, cluster.RoundRobin, "round-robin"},
		{45, 0, "headroom-aware"},
		{0, 0, "headroom-aware"},
	} {
		co, err := fleet.New(fleet.Config{
			Nodes:   []fleet.NodeConfig{{ID: "n0", URL: "http://a:1"}},
			BudgetW: tc.budgetW, Balancer: tc.bal,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(co.Handler())
		status, body := getStatus(t, ts.URL+"/v1/nodes")
		ts.Close()
		var nodes struct {
			Balancer string `json:"balancer"`
		}
		if err := json.Unmarshal([]byte(body), &nodes); err != nil || status != http.StatusOK {
			t.Fatalf("GET /v1/nodes -> %d %s (%v)", status, body, err)
		}
		if nodes.Balancer != tc.want {
			t.Errorf("budget %v W, Balancer %v: coordinator places with %q, want %q", tc.budgetW, tc.bal, nodes.Balancer, tc.want)
		}
	}
}

func TestPartition(t *testing.T) {
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	// Demand-proportional on top of floors, summing to the budget.
	shares := fleet.Partition(40, 5, []float64{0, 10, 30}, []bool{true, true, true})
	if math.Abs(sum(shares)-40) > 1e-9 {
		t.Fatalf("shares %v sum to %v, want 40", shares, sum(shares))
	}
	for i, s := range shares {
		if s < 5 {
			t.Fatalf("node %d share %v below the 5W floor", i, s)
		}
	}
	if !(shares[2] > shares[1] && shares[1] > shares[0]) {
		t.Fatalf("shares %v should increase with demand", shares)
	}

	// Unhealthy nodes get nothing; their watts go to the survivors.
	shares = fleet.Partition(40, 5, []float64{10, 10, 10}, []bool{true, false, true})
	if shares[1] != 0 {
		t.Fatalf("unhealthy node got %v W", shares[1])
	}
	if math.Abs(sum(shares)-40) > 1e-9 {
		t.Fatalf("shares %v should still sum to the budget", shares)
	}
	if math.Abs(shares[0]-20) > 1e-9 || math.Abs(shares[2]-20) > 1e-9 {
		t.Fatalf("equal-demand survivors should split evenly, got %v", shares)
	}

	// A budget below the floors degrades proportionally instead of
	// over-committing.
	shares = fleet.Partition(6, 5, []float64{0, 0}, []bool{true, true})
	if math.Abs(sum(shares)-6) > 1e-9 {
		t.Fatalf("over-subscribed shares %v exceed the budget", shares)
	}

	// Nothing healthy, or no budget: all zeros.
	for _, shares := range [][]float64{
		fleet.Partition(40, 5, []float64{1, 1}, []bool{false, false}),
		fleet.Partition(0, 5, []float64{1, 1}, []bool{true, true}),
	} {
		if sum(shares) != 0 {
			t.Fatalf("expected zero shares, got %v", shares)
		}
	}
}

// TestRoutingInvariant is the core shard-consistency property: every
// job ID the fleet hands out resolves on exactly one node, that node
// is the one its ID prefix names, and the coordinator's answer for it
// matches the owning node's own.
func TestRoutingInvariant(t *testing.T) {
	nodes := []*testNode{
		startNode(t, "n0", "", ""),
		startNode(t, "n1", "", ""),
		startNode(t, "n2", "", ""),
	}
	_, coURL := startFleet(t, nodes, 0)

	var ids []string
	for i := 0; i < 30; i++ {
		id, status := submitJob(t, coURL, "lud")
		if status != http.StatusAccepted {
			t.Fatalf("submit %d -> %d", i, status)
		}
		ids = append(ids, id)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate job ID %s across the fleet", id)
		}
		seen[id] = true
		owners := 0
		var direct string
		for _, n := range nodes {
			status, body := getStatus(t, n.url+"/v1/jobs/"+id)
			switch status {
			case http.StatusOK:
				owners++
				direct = body
				if !strings.HasPrefix(id, n.id+"-") {
					t.Fatalf("job %s resolved on node %s, which its prefix does not name", id, n.id)
				}
			case http.StatusNotFound:
			default:
				t.Fatalf("direct GET %s on %s -> %d", id, n.id, status)
			}
		}
		if owners != 1 {
			t.Fatalf("job %s resolves on %d nodes, want exactly 1", id, owners)
		}
		status, viaCo := getStatus(t, coURL+"/v1/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("coordinator GET %s -> %d", id, status)
		}
		var a, b struct {
			ID      string `json:"id"`
			Program string `json:"program"`
		}
		if err := json.Unmarshal([]byte(viaCo), &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(direct), &b); err != nil {
			t.Fatal(err)
		}
		if a.ID != b.ID || a.Program != b.Program {
			t.Fatalf("coordinator and owning node disagree on %s: %+v vs %+v", id, a, b)
		}
	}

	// An ID no node's prefix matches is a clean 404, not a proxy shrug.
	if status, _ := getStatus(t, coURL+"/v1/jobs/zz-job-000001"); status != http.StatusNotFound {
		t.Fatalf("unroutable job ID -> %d, want 404", status)
	}

	// The fan-out list sees every job.
	status, body := getStatus(t, coURL+"/v1/jobs")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/jobs -> %d", status)
	}
	var list struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
		Unavailable []string `json:"unavailable"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Unavailable) != 0 {
		t.Fatalf("healthy fleet reported unavailable nodes: %v", list.Unavailable)
	}
	listed := map[string]bool{}
	for _, j := range list.Jobs {
		listed[j.ID] = true
	}
	for _, id := range ids {
		if !listed[id] {
			t.Fatalf("job %s missing from the fleet-wide list", id)
		}
	}

	// The aggregated plan view carries the fleet summary.
	status, body = getStatus(t, coURL+"/v1/plan")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/plan -> %d", status)
	}
	var plan struct {
		NodesTotal   int                        `json:"nodes_total"`
		NodesHealthy int                        `json:"nodes_healthy"`
		Nodes        map[string]json.RawMessage `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(body), &plan); err != nil {
		t.Fatal(err)
	}
	if plan.NodesTotal != 3 || plan.NodesHealthy != 3 || len(plan.Nodes) != 3 {
		t.Fatalf("plan summary %s", body)
	}
}

// TestNodeFailureIsolation kills one node and checks the blast
// radius: only that shard's jobs 503, the rest keep serving, and new
// submissions flow to the survivors.
func TestNodeFailureIsolation(t *testing.T) {
	nodes := []*testNode{
		startNode(t, "n0", "", ""),
		startNode(t, "n1", "", ""),
		startNode(t, "n2", "", ""),
	}
	co, coURL := startFleet(t, nodes, 0)

	var ids []string
	for i := 0; i < 30; i++ {
		id, status := submitJob(t, coURL, "hotspot")
		if status != http.StatusAccepted {
			t.Fatalf("submit %d -> %d", i, status)
		}
		ids = append(ids, id)
	}
	perNode := map[string]int{}
	for _, id := range ids {
		perNode[strings.SplitN(id, "-job-", 2)[0]]++
	}
	for _, n := range nodes {
		if perNode[n.id] == 0 {
			t.Fatalf("node %s got no jobs before the failure (placement %v)", n.id, perNode)
		}
	}

	nodes[1].kill()
	waitFor(t, 5*time.Second, func() bool { return co.HealthyNodes() == 2 },
		"the killed node to leave rotation")

	for _, id := range ids {
		status, _ := getStatus(t, coURL+"/v1/jobs/"+id)
		if strings.HasPrefix(id, "n1-") {
			if status != http.StatusServiceUnavailable {
				t.Fatalf("dead shard's job %s -> %d, want 503", id, status)
			}
		} else if status != http.StatusOK {
			t.Fatalf("surviving shard's job %s -> %d, want 200", id, status)
		}
	}

	for i := 0; i < 12; i++ {
		id, status := submitJob(t, coURL, "hotspot")
		if status != http.StatusAccepted {
			t.Fatalf("post-failure submit %d -> %d", i, status)
		}
		if strings.HasPrefix(id, "n1-") {
			t.Fatalf("job %s routed to the dead node", id)
		}
	}

	// The fleet stays ready with one node down; the list degrades to a
	// partial view that names the missing shard.
	if status, _ := getStatus(t, coURL+"/readyz"); status != http.StatusOK {
		t.Fatalf("fleet /readyz -> %d with survivors up", status)
	}
	status, body := getStatus(t, coURL+"/v1/jobs")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/jobs -> %d", status)
	}
	var list struct {
		Unavailable []string `json:"unavailable"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Unavailable) != 1 || list.Unavailable[0] != "n1" {
		t.Fatalf("unavailable = %v, want [n1]", list.Unavailable)
	}
}

// TestRestartRecovery restarts a journaled node on its old port and
// checks the coordinator serves its recovered records — the same
// answer via the fleet API as from the node directly. The first read
// and the first submit after the restart succeed without suspending
// the node, rerouting, or counting a proxy error.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	n0 := startNode(t, "n0", dir, "")
	rest := []*testNode{startNode(t, "n1", "", ""), startNode(t, "n2", "", "")}
	co, coURL := startFleet(t, []*testNode{n0, rest[0], rest[1]}, 0)

	var n0IDs []string
	for i := 0; i < 18; i++ {
		id, status := submitJob(t, coURL, "lud")
		if status != http.StatusAccepted {
			t.Fatalf("submit %d -> %d", i, status)
		}
		if strings.HasPrefix(id, "n0-") {
			n0IDs = append(n0IDs, id)
		}
	}
	if len(n0IDs) == 0 {
		t.Fatal("no job landed on the journaled node")
	}

	addr := n0.addr
	n0.stopGracefully(t)
	waitFor(t, 5*time.Second, func() bool { return co.HealthyNodes() == 2 },
		"the stopped node to leave rotation")

	restarted := startNode(t, "n0", dir, addr)
	waitFor(t, 5*time.Second, func() bool { return co.HealthyNodes() == 3 },
		"the restarted node to rejoin")

	// Let the recovered queue drain so both reads see a settled record.
	waitFor(t, 10*time.Second, func() bool {
		for _, j := range restarted.s.Jobs() {
			if j.State != server.JobDone && j.State != server.JobFailed {
				return false
			}
		}
		return true
	}, "recovered jobs to finish")

	rerouted := metric(t, coURL, "fleet_jobs_rerouted_total")
	proxyErrors := metric(t, coURL, "fleet_proxy_errors_total")
	for _, id := range n0IDs {
		coStatus, viaCo := getStatus(t, coURL+"/v1/jobs/"+id)
		dStatus, direct := getStatus(t, restarted.url+"/v1/jobs/"+id)
		if coStatus != http.StatusOK || dStatus != http.StatusOK {
			t.Fatalf("recovered job %s: coordinator %d, direct %d", id, coStatus, dStatus)
		}
		if viaCo != direct {
			t.Fatalf("recovered job %s: coordinator and node answers differ:\n%s\nvs\n%s", id, viaCo, direct)
		}
		if n := co.HealthyNodes(); n != 3 {
			t.Fatalf("a proxied read after the restart left %d nodes in rotation, want 3", n)
		}
	}

	// The restarted node resumes its ID sequence: new submissions mint
	// fresh n0-prefixed IDs, never reusing a recovered one.
	known := map[string]bool{}
	for _, id := range n0IDs {
		known[id] = true
	}
	for i := 0; i < 9; i++ {
		id, status := submitJob(t, coURL, "lud")
		if status != http.StatusAccepted {
			t.Fatalf("post-restart submit -> %d", status)
		}
		if known[id] {
			t.Fatalf("restarted node re-minted recovered ID %s", id)
		}
		if n := co.HealthyNodes(); n != 3 {
			t.Fatalf("a submit after the restart left %d nodes in rotation, want 3", n)
		}
	}
	if d := metric(t, coURL, "fleet_jobs_rerouted_total") - rerouted; d != 0 {
		t.Errorf("%v submissions rerouted after the restart, want 0", d)
	}
	if d := metric(t, coURL, "fleet_proxy_errors_total") - proxyErrors; d != 0 {
		t.Errorf("%v proxy errors after the restart, want 0", d)
	}
}

// TestBudgetPartitionLive checks the coordinator actually drives the
// nodes' caps: an idle fleet splits the budget evenly, and changing
// the budget through the fleet API repartitions immediately.
func TestBudgetPartitionLive(t *testing.T) {
	nodes := []*testNode{startNode(t, "n0", "", ""), startNode(t, "n1", "", "")}
	_, coURL := startFleet(t, nodes, 40)

	nodeCap := func(n *testNode) float64 {
		status, body := getStatus(t, n.url+"/readyz")
		if status != http.StatusOK {
			return -1
		}
		var st struct {
			CapWatts float64 `json:"cap_watts"`
		}
		if json.Unmarshal([]byte(body), &st) != nil {
			return -1
		}
		return st.CapWatts
	}
	waitFor(t, 5*time.Second, func() bool {
		return math.Abs(nodeCap(nodes[0])-20) < 0.5 && math.Abs(nodeCap(nodes[1])-20) < 0.5
	}, "the idle fleet to split the budget evenly")

	status, body := getStatus(t, coURL+"/v1/cap")
	if status != http.StatusOK || !strings.Contains(body, "40") {
		t.Fatalf("GET /v1/cap -> %d %s", status, body)
	}
	resp, err := http.Post(coURL+"/v1/cap", "application/json", strings.NewReader(`{"cap_watts": 12}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/cap -> %d", resp.StatusCode)
	}
	waitFor(t, 5*time.Second, func() bool {
		return math.Abs(nodeCap(nodes[0])-6) < 0.5 && math.Abs(nodeCap(nodes[1])-6) < 0.5
	}, "the new budget to reach the nodes")
}

// TestIdentityMismatch keeps a mis-wired node out of rotation: the
// daemon answers /readyz, but as a different identity than the
// coordinator was configured to expect.
func TestIdentityMismatch(t *testing.T) {
	n := startNode(t, "actual", "", "")
	co, err := fleet.New(fleet.Config{
		Nodes:          []fleet.NodeConfig{{ID: "expected", URL: n.url}},
		HealthInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co.Start(ctx)
	defer co.Stop()
	if co.HealthyNodes() != 0 {
		t.Fatal("identity-mismatched node entered rotation")
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()
	if status, _ := getStatus(t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("fleet /readyz -> %d with no trusted node, want 503", status)
	}
	if _, status := submitJob(t, ts.URL, "lud"); status != http.StatusServiceUnavailable {
		t.Fatalf("submit with no trusted node -> %d, want 503", status)
	}
}
