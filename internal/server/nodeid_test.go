package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestValidateNodeID(t *testing.T) {
	for _, ok := range []string{"", "n0", "rack1.n0", "a", "A-1_b.c", strings.Repeat("x", 32)} {
		if err := ValidateNodeID(ok); err != nil {
			t.Errorf("ValidateNodeID(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"-n0", "n0-", "has space", "a/b", "a,b", strings.Repeat("x", 33)} {
		if err := ValidateNodeID(bad); err == nil {
			t.Errorf("ValidateNodeID(%q) accepted", bad)
		}
	}
	// Config validation goes through the same gate.
	if _, err := New(Config{Char: testChar(t), Cap: 15, NodeID: "-bad-"}); err == nil {
		t.Error("New accepted an invalid node ID")
	}
}

// TestNodeIDSurfaces checks the identity shows up everywhere the fleet
// layer reads it: minted job IDs, the /readyz answer, and the
// corund_node_info metric.
func TestNodeIDSurfaces(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.NodeID = "rack1.n0" })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/v1/jobs", `{"program":"lud"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit -> %d: %s", code, body)
	}
	var j Job
	if err := json.Unmarshal([]byte(body), &j); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(j.ID, "rack1.n0-job-") {
		t.Fatalf("minted ID %q lacks the node prefix", j.ID)
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/"+j.ID); code != http.StatusOK {
		t.Fatalf("prefixed ID did not resolve: %d", code)
	}

	code, body = get(t, ts.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("/readyz -> %d", code)
	}
	var ready struct {
		Node string `json:"node"`
	}
	if err := json.Unmarshal([]byte(body), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Node != "rack1.n0" {
		t.Fatalf("/readyz node = %q, want rack1.n0", ready.Node)
	}

	_, body = get(t, ts.URL+"/metrics")
	if metricValue(t, body, `corund_node_info{node="rack1.n0"}`) != 1 {
		t.Fatalf("corund_node_info not set for the configured identity")
	}
}

// TestNodeIDJournalResume restarts a journaled node and checks the ID
// sequence continues past the recovered prefixed IDs instead of
// re-minting them.
func TestNodeIDJournalResume(t *testing.T) {
	dir := t.TempDir()
	mkNode := func() *Server {
		s, err := New(Config{
			Cap: 15, Policy: "random", Seed: 1,
			EpochGap: 2 * time.Millisecond,
			NodeID:   "n7", DataDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := mkNode()
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		j, err := s.Submit(mustSpec(t, "lud"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(j.ID, "n7-job-") {
			t.Fatalf("journaled node minted %q", j.ID)
		}
		ids[j.ID] = true
	}
	waitAllTerminal(t, s, 3, 30*time.Second)
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer drainCancel()
	if err := s.DrainAndWait(drainCtx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cancel()

	re := mkNode()
	defer re.Close()
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	re.Start(ctx2)
	if got := len(re.Jobs()); got != 3 {
		t.Fatalf("recovered %d jobs, want 3", got)
	}
	j, err := re.Submit(mustSpec(t, "lud"))
	if err != nil {
		t.Fatal(err)
	}
	if ids[j.ID] {
		t.Fatalf("restarted node re-minted recovered ID %s", j.ID)
	}
	// Zero-padded same-prefix IDs order lexicographically: the resumed
	// sequence must continue past every recovered ID.
	for id := range ids {
		if j.ID <= id {
			t.Fatalf("restarted node minted %s, not past recovered %s", j.ID, id)
		}
	}
}
