package server

// Regression tests for the request deadline's contract on the three
// journaling routes (DESIGN.md §2d): a 503 for the deadline means
// nothing was admitted or changed. Each request runs out of its
// deadline in a wait before its commit, and each test then gives a
// handler that might still be running behind its response the time to
// finish before it looks.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"corun/internal/fault"
)

// TestDeadlineSubmitAdmitsNothing: a submit that runs out of
// RequestTimeout in a server/admit latency gets the JSON deadline 503,
// and the job exists nowhere — not in the table, not in
// corund_jobs_submitted_total, not in the journal — so a client that
// retries the 503 runs it once.
func TestDeadlineSubmitAdmitsNothing(t *testing.T) {
	const timeout, latency = 20 * time.Millisecond, 100 * time.Millisecond
	reg := fault.NewRegistry()
	s := newTestServer(t, func(c *Config) {
		c.Policy = "random"
		c.Faults = reg
		c.RequestTimeout = timeout
		c.DataDir = t.TempDir()
	})
	t.Cleanup(func() { s.Close() })
	if err := reg.Arm(fault.Rule{Site: SiteAdmit, Kind: fault.KindLatency, Delay: latency}); err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	seq := s.jl.LastSeq()
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"program":"cfd"}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit past its deadline -> %d: %s", rec.Code, rec.Body)
	}
	checkJSONError(t, "deadline 503", rec.Header(), rec.Body.String(), "error")

	time.Sleep(2 * latency)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.DrainAndWait(ctx); err != nil {
		t.Fatal(err)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Errorf("a job answered 503 was admitted and ran: %+v", jobs)
	}
	metrics := httptest.NewRecorder()
	h.ServeHTTP(metrics, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if v := metricValue(t, metrics.Body.String(), "corund_jobs_submitted_total"); v != 0 {
		t.Errorf("corund_jobs_submitted_total = %v, want 0", v)
	}
	if got := s.jl.LastSeq(); got != seq {
		t.Errorf("journal went from seq %d to %d for a refused submit", seq, got)
	}
}

// TestDeadlineCapChangesNothing: a cap change that runs out of
// RequestTimeout while another control change holds the lock gets the
// JSON deadline 503, and the cap and the journal are as they were.
func TestDeadlineCapChangesNothing(t *testing.T) {
	const timeout = 20 * time.Millisecond
	s := newTestServer(t, func(c *Config) {
		c.RequestTimeout = timeout
		c.DataDir = t.TempDir()
	})
	t.Cleanup(func() { s.Close() })
	h := s.Handler()
	cap0, seq := s.Cap(), s.jl.LastSeq()

	s.ctlMu.Lock() // a control change in flight
	done := make(chan *httptest.ResponseRecorder)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cap", strings.NewReader(`{"cap_watts":12}`)))
		done <- rec
	}()
	time.Sleep(3 * timeout)
	s.ctlMu.Unlock()
	rec := <-done
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cap change past its deadline -> %d: %s", rec.Code, rec.Body)
	}
	checkJSONError(t, "deadline 503", rec.Header(), rec.Body.String(), "error")

	time.Sleep(3 * timeout)
	if got := s.Cap(); got != cap0 {
		t.Errorf("cap %v after a 503, want %v unchanged", got, cap0)
	}
	if got := s.jl.LastSeq(); got != seq {
		t.Errorf("journal went from seq %d to %d for a refused cap change", seq, got)
	}
}

// TestDeadlineContextKeepsTheContract: the request context Deadline
// builds costs no timer while nothing waits on it, and keeps the
// context contract: Done closes at the deadline, a derived context
// follows it, the first error sticks, and a context released with its
// request reads as canceled.
func TestDeadlineContextKeepsTheContract(t *testing.T) {
	parent, cancelParent := context.WithCancel(context.Background())
	defer cancelParent()
	c := &deadlineCtx{Context: parent, at: time.Now().Add(30 * time.Millisecond)}
	if err := c.Err(); err != nil || c.built.Load() {
		t.Fatalf("fresh context: err %v, timer built %v", err, c.built.Load())
	}
	child, cancelChild := context.WithCancel(c)
	defer cancelChild()
	select {
	case <-child.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("a context derived from the request's never saw its deadline")
	}
	cancelParent()
	if c.Err() != context.DeadlineExceeded || child.Err() != context.DeadlineExceeded {
		t.Errorf("after the deadline and a later cancel: %v, child %v; want DeadlineExceeded twice", c.Err(), child.Err())
	}

	hungUp, hangUp := context.WithCancel(context.Background())
	c = &deadlineCtx{Context: hungUp, at: time.Now().Add(time.Hour)}
	hangUp()
	if c.Err() != context.Canceled {
		t.Errorf("client hang-up: %v, want Canceled", c.Err())
	}
	select {
	case <-c.Done():
	default:
		t.Error("Done open after Err reported the hang-up")
	}

	c = &deadlineCtx{Context: context.Background(), at: time.Now().Add(time.Hour)}
	c.release()
	if c.Err() != context.Canceled {
		t.Errorf("released context: %v, want Canceled", c.Err())
	}
	<-c.Done()
}
