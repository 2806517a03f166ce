package fleet_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"corun/internal/fleet"
	"corun/internal/server"
	"corun/internal/workload"
)

// fakeNode is a node stand-in: it answers /readyz as a ready node
// named id and hands every other request to h.
func fakeNode(t testing.TB, id string, h http.HandlerFunc) fleet.NodeConfig {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, `{"status":"ready","node":%q,"queue_depth":0,"cap_watts":15}`, id)
	})
	mux.HandleFunc("/", h)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return fleet.NodeConfig{ID: id, URL: ts.URL}
}

// newCoordinator starts a coordinator and waits for all of its nodes
// to enter rotation.
func newCoordinator(t testing.TB, cfg fleet.Config) *fleet.Coordinator {
	t.Helper()
	co, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	co.Start(ctx)
	t.Cleanup(func() { cancel(); co.Stop() })
	waitFor(t, 5*time.Second, func() bool { return co.HealthyNodes() == len(cfg.Nodes) }, "all nodes healthy")
	return co
}

// slow answers 202 after 300 ms, or nothing if its caller gives up
// first.
func slow(w http.ResponseWriter, r *http.Request) {
	select {
	case <-time.After(300 * time.Millisecond):
		w.WriteHeader(http.StatusAccepted)
	case <-r.Context().Done():
	}
}

// wantNoNodeFault checks that no node was charged with a failure: all
// of them in rotation, nothing rerouted, no proxy error.
func wantNoNodeFault(t *testing.T, co *fleet.Coordinator, baseURL string, nodes int) {
	t.Helper()
	if n := co.HealthyNodes(); n != nodes {
		t.Errorf("%d nodes in rotation, want %d", n, nodes)
	}
	for _, name := range []string{"fleet_jobs_rerouted_total", "fleet_proxy_errors_total", "fleet_routing_failures_total"} {
		if v := metric(t, baseURL, name); v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
}

// metric reads one unlabelled fleet_* series from the coordinator.
func metric(t testing.TB, baseURL, name string) float64 {
	t.Helper()
	_, body := getStatus(t, baseURL+"/metrics")
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no %s on /metrics", name)
	return 0
}

// TestClientHangUpIsNotANodeFault is the regression test for a client
// that gives up on a slow node: the request ends within 100 ms of the
// hang-up, and the node is neither suspended nor counted against —
// before the fix one cancelled submit took every node out of rotation.
func TestClientHangUpIsNotANodeFault(t *testing.T) {
	// Probes only at start: a wrongful suspension would stick.
	co := newCoordinator(t, fleet.Config{
		Nodes:          []fleet.NodeConfig{fakeNode(t, "n0", slow), fakeNode(t, "n1", slow)},
		HealthInterval: time.Hour,
	})
	h := co.Handler()
	returned := make(chan time.Time, 1)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		returned <- time.Now()
	}))
	defer front.Close()
	plain := httptest.NewServer(h)
	defer plain.Close()

	for _, req := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/jobs", `{"program":"lud"}`},
		{http.MethodGet, "/v1/jobs/n1-job-000001", ""},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		hr, err := http.NewRequestWithContext(ctx, req.method, front.URL+req.path, strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := http.DefaultClient.Do(hr); err == nil {
			resp.Body.Close()
			t.Fatalf("%s %s answered %d before the slow node did", req.method, req.path, resp.StatusCode)
		}
		hungUp := time.Now()
		cancel()
		select {
		case at := <-returned:
			if d := at.Sub(hungUp); d > 100*time.Millisecond {
				t.Errorf("%s %s: handler returned %v after the client hung up, want <= 100ms", req.method, req.path, d)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s %s: handler still running 1s after the client hung up", req.method, req.path)
		}
	}
	wantNoNodeFault(t, co, plain.URL, 2)
}

// TestRequestDeadlineIsJSON503 runs each kind of proxied request into
// -request-timeout: the coordinator answers its own JSON 503, and the
// slow node is not charged with a failure.
func TestRequestDeadlineIsJSON503(t *testing.T) {
	co := newCoordinator(t, fleet.Config{
		Nodes:          []fleet.NodeConfig{fakeNode(t, "n0", slow)},
		HealthInterval: time.Hour,
		RequestTimeout: 50 * time.Millisecond,
	})
	front := httptest.NewServer(co.Handler())
	defer front.Close()
	for _, req := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/jobs", `{"program":"lud"}`},
		{http.MethodGet, "/v1/jobs/n0-job-000001", ""},
		{http.MethodGet, "/v1/jobs", ""},
		{http.MethodGet, "/v1/plan", ""},
	} {
		got := exchange(t, req.method, front.URL+req.path, req.body)
		status, rest, _ := strings.Cut(got, "\n")
		_, body, _ := strings.Cut(rest, "\n\n")
		var e struct{ Error string }
		if status != "503" || !strings.Contains(rest, "Content-Type: application/json\n") ||
			json.Unmarshal([]byte(body), &e) != nil || e.Error != "fleet: request deadline exceeded" {
			t.Errorf("%s %s past the deadline ->\n%s", req.method, req.path, got)
		}
	}
	wantNoNodeFault(t, co, front.URL, 1)
}

// TestTrickledBodyEndsAtDeadline: a client that sends its submission a
// byte at a time is cut off at -request-timeout with the deadline 503,
// not held for as long as it keeps trickling.
func TestTrickledBodyEndsAtDeadline(t *testing.T) {
	co := newCoordinator(t, fleet.Config{
		Nodes:          []fleet.NodeConfig{fakeNode(t, "n0", slow)},
		HealthInterval: time.Hour,
		RequestTimeout: 100 * time.Millisecond,
	})
	front := httptest.NewServer(co.Handler())
	defer front.Close()
	conn, err := net.Dial("tcp", strings.TrimPrefix(front.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"program":"lud","deadline_s":200}`
	start := time.Now()
	fmt.Fprintf(conn, "POST /v1/jobs HTTP/1.1\r\nHost: fleet\r\nContent-Length: %d\r\n\r\n", len(body))
	go func() {
		for i := 0; i < len(body); i++ {
			if _, err := conn.Write([]byte{body[i]}); err != nil {
				return
			}
			time.Sleep(50 * time.Millisecond) // the whole body takes ~1.7 s
		}
	}()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if d := time.Since(start); d > 600*time.Millisecond {
		t.Errorf("trickled submission answered after %v, want at the 100ms deadline", d)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(got), "fleet: request deadline exceeded") {
		t.Errorf("trickled submission -> %d %s", resp.StatusCode, got)
	}
	wantNoNodeFault(t, co, front.URL, 1)
}

// TestJobIDCannotSmuggleARequest asks for a job whose ID spells the
// rest of a request line and a second request. The node must see it as
// one escaped path segment — one request, answered with its own 404 —
// and the next request on the same pooled connection its own reply.
func TestJobIDCannotSmuggleARequest(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	node := fakeNode(t, "n0", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Method+" "+r.RequestURI)
		mu.Unlock()
		if r.URL.Path != "/v1/jobs/n0-job-000001" {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, `{"id":"n0-job-000001"}`)
	})
	co := newCoordinator(t, fleet.Config{Nodes: []fleet.NodeConfig{node}, HealthInterval: time.Hour})
	front := httptest.NewServer(co.Handler())
	defer front.Close()

	id := "n0-x HTTP/1.1\r\nHost: a\r\n\r\nPOST /v1/cap HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\n\r\n{}"
	if got := exchange(t, http.MethodGet, front.URL+"/v1/jobs/"+url.PathEscape(id), ""); !strings.HasPrefix(got, "404\n") {
		t.Fatalf("smuggling ID ->\n%s", got)
	}
	if got := exchange(t, http.MethodGet, front.URL+"/v1/jobs/n0-job-000001", ""); !strings.HasSuffix(got, `{"id":"n0-job-000001"}`) {
		t.Fatalf("next request on the connection ->\n%s", got)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"GET /v1/jobs/" + url.PathEscape(id), "GET /v1/jobs/n0-job-000001"}
	if len(seen) != 2 || seen[0] != want[0] || seen[1] != want[1] {
		t.Fatalf("node received %q, want %q", seen, want)
	}
}

// exchange sends one request and returns the parts of the reply the
// coordinator promises to relay unchanged.
func exchange(t testing.TB, method, url, body string) string {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d\nLocation: %s\nRetry-After: %s\nContent-Type: %s\n\n%s", resp.StatusCode,
		resp.Header.Get("Location"), resp.Header.Get("Retry-After"), resp.Header.Get("Content-Type"), b)
}

// TestRepliesPassThroughByteIdentical sends each submission once
// through the coordinator and once to the node directly: status,
// Location, Retry-After, Content-Type and body must agree byte for
// byte, and the node must have received the client's own bytes. A spec
// the coordinator rejects itself gets the 400 a real node would give.
// Through a coordinator in front of a real node, every job body — the
// ack, the status read, the list — is json.Marshal of the node's
// record, for labels that need escaping and one (submitted through the
// Go API) that is not valid UTF-8.
func TestRepliesPassThroughByteIdentical(t *testing.T) {
	var mu sync.Mutex
	var received []string
	node := fakeNode(t, "n0", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		received = append(received, string(body))
		mu.Unlock()
		spec, _ := workload.DecodeJobSpecBytes(body)
		switch spec.Program {
		case "cfd":
			w.Header().Set("Location", "/v1/jobs/n0-job-000007")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, `{"id":"n0-job-000007","program":"cfd","state":"queued"}`+"\n")
		case "lud":
			w.Header().Set("Retry-After", "3")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, "{\n  \"bound\": \"tenant\",\n  \"error\": \"full\"\n}\n")
		default:
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.WriteHeader(http.StatusBadRequest)
			io.WriteString(w, `{"error": "node says no"}`)
		}
	})
	co := newCoordinator(t, fleet.Config{Nodes: []fleet.NodeConfig{node}, HealthInterval: 50 * time.Millisecond})
	front := httptest.NewServer(co.Handler())
	defer front.Close()

	for _, body := range []string{
		`{ "program" : "cfd", "label":"a\u00e9" }`,
		`{"program":"lud","tenant":"team-a"}` + "\n",
		`{"program":"hotspot"}`,
	} {
		mu.Lock()
		received = nil
		mu.Unlock()
		via := exchange(t, http.MethodPost, front.URL+"/v1/jobs", body)
		direct := exchange(t, http.MethodPost, node.URL+"/v1/jobs", body)
		if via != direct {
			t.Errorf("submit %s: coordinator reply differs from the node's:\n%s\nvs\n%s", body, via, direct)
		}
		mu.Lock()
		if len(received) != 2 || received[0] != body || received[1] != body {
			t.Errorf("submit %s: node received %q, want the client's bytes twice", body, received)
		}
		mu.Unlock()
	}

	real := startNode(t, "n1", "", "")
	for _, body := range []string{`{"program":"nosuch"}`, `{"program":"cfd","dead_line_s":9}`, ``} {
		via := exchange(t, http.MethodPost, front.URL+"/v1/jobs", body)
		direct := exchange(t, http.MethodPost, real.url+"/v1/jobs", body)
		if !strings.HasPrefix(via, "400\n") || via != direct {
			t.Errorf("bad spec %q: coordinator and node 400s differ:\n%s\nvs\n%s", body, via, direct)
		}
	}

	_, coURL := startFleet(t, []*testNode{real}, 0)
	for _, body := range []string{
		`{"program":"cfd","label":"<a&b>\u2028\u2029","deadline_s":1e-7}`,
		`{"program":"lud","label":"tab\t\"quote\" back\\","deadline_s":1e9,"tenant":"team-a","priority":"high"}`,
		`{"program":"dwt2d","scale":1.5}`,
		"{\"program\":\"srad\",\"label\":\"raw \xff byte\"}",
	} {
		resp, err := http.Post(coURL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		ack, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var j server.Job
		if resp.StatusCode != http.StatusAccepted || json.Unmarshal(ack, &j) != nil {
			t.Fatalf("submit %s -> %d: %s", body, resp.StatusCode, ack)
		}
		if want, _ := json.Marshal(&j); string(ack) != string(want)+"\n" {
			t.Errorf("ack relayed\n got %s\nwant %s", ack, want)
		}
	}
	if _, err := real.s.Submit(workload.JobSpec{Program: "hotspot", Label: "bad\xffutf8 <\xe2\x80\xa8>"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		for _, j := range real.s.Jobs() {
			if j.State != server.JobDone && j.State != server.JobFailed {
				return false
			}
		}
		return true
	}, "every job terminal")
	jobs := real.s.Jobs()
	for i := range jobs {
		want, _ := json.Marshal(&jobs[i])
		if _, got := getStatus(t, coURL+"/v1/jobs/"+jobs[i].ID); got != string(want)+"\n" {
			t.Errorf("GET /v1/jobs/%s relayed\n got %s\nwant %s", jobs[i].ID, got, want)
		}
	}
	want, _ := json.MarshalIndent(map[string]any{"jobs": jobs}, "", "  ")
	if _, got := getStatus(t, coURL+"/v1/jobs"); got != string(want)+"\n" {
		t.Errorf("GET /v1/jobs merged\n got %s\nwant %s", got, want)
	}
}

// seedBodies reads the FuzzJobSpecJSON seed corpus.
func seedBodies(t testing.TB) []string {
	t.Helper()
	raw, err := os.ReadFile("../workload/testdata/jobspec-seeds.json")
	if err != nil {
		t.Fatal(err)
	}
	var groups []struct {
		Bodies []string `json:"bodies"`
	}
	if err := json.Unmarshal(raw, &groups); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, g := range groups {
		out = append(out, g.Bodies...)
	}
	return out
}

// TestForwardedBytesDecodeAsReencoded shows forwarding a submission's
// own bytes changes nothing: for every FuzzJobSpecJSON seed the
// coordinator accepts, the node's job carries the spec that
// json.Marshal of the coordinator's decode would have given it.
func TestForwardedBytesDecodeAsReencoded(t *testing.T) {
	n := startNode(t, "n0", "", "")
	_, coURL := startFleet(t, []*testNode{n}, 0)
	accepted := 0
	for _, body := range seedBodies(t) {
		spec, decErr := workload.DecodeJobSpecBytes([]byte(body))
		resp, err := http.Post(coURL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		ack, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if decErr != nil {
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("seed %q: coordinator answered %d to a spec its decoder rejects (%v)", body, resp.StatusCode, decErr)
			}
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("seed %q: %d %s", body, resp.StatusCode, ack)
		}
		accepted++
		reencoded, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := workload.DecodeJobSpecBytes(reencoded)
		if err != nil {
			t.Fatalf("seed %q: re-encoding %s rejected: %v", body, reencoded, err)
		}
		var job struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(ack, &job); err != nil {
			t.Fatal(err)
		}
		_, direct := getStatus(t, n.url+"/v1/jobs/"+job.ID)
		var got workload.JobSpec
		if err := json.Unmarshal([]byte(direct), &got); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("seed %q: node holds %+v, re-encoding would have given %+v", body, got, want)
		}
	}
	if accepted == 0 {
		t.Fatal("no seed was accepted")
	}
}
