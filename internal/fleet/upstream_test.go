package fleet

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countingServer is a stand-in node that counts the TCP connections
// dialed to it.
func countingServer(t *testing.T, h http.HandlerFunc) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var dials atomic.Int32
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, &dials
}

func mustUpstream(t *testing.T, url string) *upstream {
	t.Helper()
	up, err := newUpstream(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(up.closeIdle)
	return up
}

// call runs one round trip and returns the reply's body as a string.
func call(t *testing.T, up *upstream, method, path, body string, limit int) (int, http.Header, string) {
	t.Helper()
	var b []byte
	if body != "" {
		b = []byte(body)
	}
	rep, err := up.do(context.Background(), method, path, b, limit)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer rep.release()
	return rep.status, rep.header, string(rep.body)
}

// TestUpstreamKeepAlive pins when a connection goes back to the pool:
// after a whole reply, chunked or not, and never after a reply that
// closes it or one cut at the read limit.
func TestUpstreamKeepAlive(t *testing.T) {
	big := strings.Repeat("x", 10<<10)
	ts, dials := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/base/echo":
			body, _ := io.ReadAll(r.Body)
			w.Header().Set("Content-Type", r.Header.Get("Content-Type"))
			w.Header().Set("X-Host", r.Host)
			w.Write(body)
		case "/base/chunked":
			io.WriteString(w, big[:5<<10])
			w.(http.Flusher).Flush()
			io.WriteString(w, big[5<<10:])
		case "/base/close":
			w.Header().Set("Connection", "close")
			io.WriteString(w, "bye")
		default:
			http.NotFound(w, r)
		}
	})
	up := mustUpstream(t, ts.URL+"/base/")
	wantDials := func(n int32, after string) {
		t.Helper()
		if got := dials.Load(); got != n {
			t.Fatalf("after %s: %d connections dialed, want %d", after, got, n)
		}
	}

	for i := 0; i < 3; i++ {
		status, h, body := call(t, up, http.MethodPost, "/echo", `{"k": 1}`, 1<<10)
		if status != http.StatusOK || body != `{"k": 1}` || h.Get("Content-Type") != "application/json" {
			t.Fatalf("echo -> %d %q %v", status, body, h)
		}
		if h.Get("X-Host") != strings.TrimPrefix(ts.URL, "http://") {
			t.Fatalf("Host header %q, want the node URL's host", h.Get("X-Host"))
		}
	}
	wantDials(1, "three round trips")

	if status, _, body := call(t, up, http.MethodGet, "/chunked", "", 1<<20); status != http.StatusOK || body != big {
		t.Fatalf("chunked -> %d, %d bytes", status, len(body))
	}
	wantDials(1, "a chunked reply")

	if status, _, body := call(t, up, http.MethodGet, "/nosuch", "", 1<<10); status != http.StatusNotFound || !strings.Contains(body, "not found") {
		t.Fatalf("404 -> %d %q", status, body)
	}
	wantDials(1, "a 404")

	if _, _, body := call(t, up, http.MethodGet, "/close", "", 1<<10); body != "bye" {
		t.Fatalf("close -> %q", body)
	}
	call(t, up, http.MethodGet, "/echo", "", 1<<10)
	wantDials(2, "a Connection: close reply")

	if _, _, body := call(t, up, http.MethodGet, "/chunked", "", 1<<10); len(body) != 1<<10 {
		t.Fatalf("limited read returned %d bytes, want %d", len(body), 1<<10)
	}
	call(t, up, http.MethodGet, "/echo", "", 1<<10)
	wantDials(3, "a reply cut at the read limit")
}

// TestUpstreamRedialsDroppedConnection is the restarted-node case: the
// node drops every pooled connection while it is idle, and the next
// round trip — a submission included — still succeeds, on one fresh
// dial.
func TestUpstreamRedialsDroppedConnection(t *testing.T) {
	ts, dials := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Write(body)
	})
	up := mustUpstream(t, ts.URL)
	call(t, up, http.MethodGet, "/", "", 1<<10)
	for i, body := range []string{`{"program":"cfd"}`, `{"program":"lud"}`} {
		ts.CloseClientConnections()
		time.Sleep(10 * time.Millisecond) // let the FIN reach the pooled end
		if status, _, got := call(t, up, http.MethodPost, "/v1/jobs", body, 1<<10); status != http.StatusOK || got != body {
			t.Fatalf("submit after the drop -> %d %q", status, got)
		}
		if got, want := dials.Load(), int32(i+2); got != want {
			t.Fatalf("%d connections dialed after drop %d, want %d", got, i+1, want)
		}
	}
}

// TestUpstreamContextEndsRoundTrip holds a blocked read to its
// context: a cancel or a deadline ends it at once, with the context's
// own error, and the connection is not reused.
func TestUpstreamContextEndsRoundTrip(t *testing.T) {
	ts, dials := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
		}
	})
	up := mustUpstream(t, ts.URL)
	for _, tc := range []struct {
		want error
		ctx  func() (context.Context, context.CancelFunc)
	}{
		{context.Canceled, func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(30*time.Millisecond, cancel)
			return ctx, cancel
		}},
		{context.DeadlineExceeded, func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 30*time.Millisecond)
		}},
	} {
		ctx, cancel := tc.ctx()
		start := time.Now()
		_, err := up.do(ctx, http.MethodGet, "/", nil, 1<<10)
		cancel()
		if !errors.Is(err, tc.want) {
			t.Fatalf("err = %v, want %v", err, tc.want)
		}
		if d := time.Since(start); d > 130*time.Millisecond {
			t.Fatalf("round trip ended %v after it started, want ~30ms", d)
		}
	}
	if len(up.idle) != 0 || dials.Load() != 2 {
		t.Fatalf("%d idle connections, %d dialed; an interrupted connection must not be reused", len(up.idle), dials.Load())
	}
}

// TestUpstreamExpiresIdleConnections: a connection idle longer than
// idleConnTimeout is closed, not reused — a middlebox may have dropped
// it without a word — and the round trip goes out on a fresh dial.
func TestUpstreamExpiresIdleConnections(t *testing.T) {
	ts, dials := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
	up := mustUpstream(t, ts.URL)
	call(t, up, http.MethodGet, "/", "", 1<<10)
	call(t, up, http.MethodGet, "/", "", 1<<10)
	if dials.Load() != 1 || len(up.idle) != 1 {
		t.Fatalf("%d dialed, %d idle after two round trips; want 1 and 1", dials.Load(), len(up.idle))
	}
	old := up.idle[0]
	old.idleSince = time.Now().Add(-idleConnTimeout)
	if _, _, body := call(t, up, http.MethodGet, "/", "", 1<<10); body != "ok" {
		t.Fatalf("round trip after the expiry -> %q", body)
	}
	if dials.Load() != 2 || len(up.idle) != 1 || up.idle[0] == old {
		t.Fatalf("%d dialed, %d idle; the expired connection must be replaced by one fresh dial", dials.Load(), len(up.idle))
	}
	if _, err := old.nc.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("expired connection read -> %v, want it closed", err)
	}
}

// TestUpstreamRefusesBrokenRequestLine: a method or path that would
// end the request line early never reaches the wire.
func TestUpstreamRefusesBrokenRequestLine(t *testing.T) {
	ts, dials := countingServer(t, func(w http.ResponseWriter, r *http.Request) {})
	up := mustUpstream(t, ts.URL)
	for _, line := range [][2]string{
		{http.MethodGet, "/v1/jobs/a b"},
		{http.MethodGet, "/v1/jobs/a\r\nPOST /v1/cap"},
		{http.MethodGet, "/v1/jobs/a\n"},
		{http.MethodGet, "/v1/jobs/a\x00"},
		{"GET /x", "/"},
		{"", "/"},
	} {
		if _, err := up.do(context.Background(), line[0], line[1], nil, 1<<10); err == nil {
			t.Errorf("%q %q was sent", line[0], line[1])
		}
	}
	if dials.Load() != 0 {
		t.Fatalf("%d connections dialed for refused requests", dials.Load())
	}
}

func TestNewUpstreamURLs(t *testing.T) {
	for raw, want := range map[string]struct{ addr, host, base string }{
		"http://127.0.0.1:8081":       {addr: "127.0.0.1:8081", host: "127.0.0.1:8081"},
		"http://node-a/":              {addr: "node-a:80", host: "node-a"},
		"http://[::1]:9000/corund/v2": {addr: "[::1]:9000", host: "[::1]:9000", base: "/corund/v2"},
	} {
		up, err := newUpstream(raw)
		if err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		if up.addr != want.addr || up.host != want.host || up.base != want.base {
			t.Errorf("%s -> addr %q host %q base %q", raw, up.addr, up.host, up.base)
		}
	}
	for _, bad := range []string{"https://a:1", "ftp://a:1", "http://", "a:1"} {
		if _, err := newUpstream(bad); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}
