package fleet_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"corun/internal/fleet"
	"corun/internal/server"
)

// benchFleet fronts n in-process nodes with a coordinator and returns
// the coordinator's handler. Both sides run corund's default 10 s
// request timeout. The nodes run the random policy behind an hour-long
// epoch gap and the coordinator probes only at start, so what is
// measured is the hop: the coordinator's handler, the round trip and
// the node's serving path.
func benchFleet(tb testing.TB, n int) http.Handler {
	tb.Helper()
	nodes := make([]fleet.NodeConfig, n)
	for i := range nodes {
		id := fmt.Sprintf("n%d", i)
		s, err := server.New(server.Config{
			Cap: 15, Policy: "random", Seed: 1, EpochGap: time.Hour, NodeID: id,
			MaxQueue: 1 << 20, RequestTimeout: 10 * time.Second,
		})
		if err != nil {
			tb.Fatal(err)
		}
		s.Start(context.Background())
		ts := httptest.NewServer(s.Handler())
		tb.Cleanup(func() { ts.Close(); s.Close() })
		nodes[i] = fleet.NodeConfig{ID: id, URL: ts.URL}
	}
	co, err := fleet.New(fleet.Config{Nodes: nodes, HealthInterval: time.Hour, RequestTimeout: 10 * time.Second})
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	co.Start(ctx)
	tb.Cleanup(func() { cancel(); co.Stop() })
	if got := co.HealthyNodes(); got != n {
		tb.Fatalf("%d of %d nodes in rotation", got, n)
	}
	return co.Handler()
}

const benchSpec = `{"program": "cfd", "scale": 1.1, "label": "bench"}`

func submitVia(tb testing.TB, h http.Handler) string {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(benchSpec)))
	if w.Code != http.StatusAccepted {
		tb.Fatalf("submit -> %d: %s", w.Code, w.Body)
	}
	return w.Header().Get("Location")
}

func readVia(tb testing.TB, h http.Handler, path string) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	if w.Code != http.StatusOK {
		tb.Fatalf("GET %s -> %d: %s", path, w.Code, w.Body)
	}
}

// BenchmarkCoordinatorSubmit measures one submission through a
// three-node coordinator: validate, place, forward, relay the ack.
func BenchmarkCoordinatorSubmit(b *testing.B) {
	h := benchFleet(b, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitVia(b, h)
	}
}

// BenchmarkCoordinatorJob measures one status read through the
// coordinator: route by ID prefix, forward, relay.
func BenchmarkCoordinatorJob(b *testing.B) {
	h := benchFleet(b, 3)
	path := submitVia(b, h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readVia(b, h, path)
	}
}

// proxiedReadAllocs is the allocation count of one status read through
// the coordinator — its handler, the round trip and the in-process
// node together — measured when the coordinator's calls became
// synchronous round trips on pooled connections (61). A change that
// raises it says why in the same diff; one that lowers it lowers it
// here. 62: the request deadline became server.Deadline's context,
// which builds its timer only when something waits on it; a node's
// journaling routes never do, but every coordinator request makes an
// upstream call, so here it is the context as before plus its shell.
const proxiedReadAllocs = 62

func TestProxiedStatusReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	h := benchFleet(t, 1)
	path := submitVia(t, h)
	if a := testing.AllocsPerRun(200, func() { readVia(t, h, path) }); a > proxiedReadAllocs {
		t.Errorf("a proxied status read allocates %v times, ceiling %d", a, proxiedReadAllocs)
	}
}
