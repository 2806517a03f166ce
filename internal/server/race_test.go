package server

// Concurrency tests for the job table and API surface, written to be
// run under `go test -race` (part of `make verify`). They hammer the
// server from many goroutines — submits, status reads, live cap and
// policy changes, metrics scrapes — while the scheduler goroutine
// churns through epochs, then check the final accounting is exact.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corun/internal/apu"
	"corun/internal/units"
	"corun/internal/workload"
)

func TestJobTableConcurrency(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.EpochGap = 2 * time.Millisecond
		c.MaxQueue = 10_000
	})
	s.Start(context.Background())

	const (
		writers   = 6
		perWriter = 8
	)
	programs := workload.Names()
	var submitted atomic.Int64
	var wg sync.WaitGroup

	// Submitters.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				spec := workload.JobSpec{Program: programs[(w+i)%len(programs)], Scale: 1}
				if _, err := s.Submit(spec); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				submitted.Add(1)
			}
		}(w)
	}
	// Status readers.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, j := range s.Jobs() {
					if _, ok := s.Job(j.ID); !ok {
						t.Errorf("job %s vanished", j.ID)
						return
					}
				}
				s.QueueDepth()
				s.Plan()
				s.node.Clock()
				time.Sleep(time.Millisecond)
			}
		}()
	}
	// Live cap and policy changes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		caps := []float64{15, 16, 18, 0}
		for i := 0; i < 40; i++ {
			if err := s.SetCaps(units.Watts(caps[i%len(caps)]), s.DomainCaps()); err != nil {
				t.Errorf("set cap: %v", err)
				return
			}
			p := "hcs+"
			if i%2 == 1 {
				p = "random"
			}
			if err := s.SetPolicy(p); err != nil {
				t.Errorf("set policy: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// Metrics and trace scrapes race against the scheduler's updates.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := s.WriteMetrics(io.Discard); err != nil {
				t.Errorf("metrics: %v", err)
				return
			}
			if err := s.WriteTrace(io.Discard, i%2 == 0); err != nil {
				t.Errorf("trace: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	jobs := waitAllTerminal(t, s, int(submitted.Load()), 120*time.Second)
	if len(jobs) != writers*perWriter {
		t.Fatalf("%d jobs recorded, want %d", len(jobs), writers*perWriter)
	}
	for _, j := range jobs {
		if j.State != JobDone {
			t.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
		}
	}
	s.Drain()
	select {
	case <-s.Drained():
	case <-time.After(60 * time.Second):
		t.Fatal("drain stuck")
	}
}

// TestRandomPolicySubmissionRace hammers submissions while epochs plan
// under the random policy with a tiny batching gap. The random policy
// consumes the per-epoch seed on the scheduler goroutine while
// submitters run concurrently — this test (under -race) pins that the
// seed derivation is contention-free and that the final accounting is
// exact. It would have caught a shared rand.Rand drawn from both
// paths.
func TestRandomPolicySubmissionRace(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Policy = "random"
		c.EpochGap = time.Millisecond
		c.MaxQueue = 10_000
	})
	s.Start(context.Background())

	const (
		writers   = 8
		perWriter = 10
	)
	programs := workload.Names()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				spec := workload.JobSpec{Program: programs[(w*perWriter+i)%len(programs)], Scale: 1}
				if _, err := s.Submit(spec); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				// Interleave with epoch planning rather than batching
				// everything into one round.
				if i%3 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}
	// Concurrent plan reads race the scheduler's epoch state updates.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			s.Plan()
			s.Jobs()
			time.Sleep(500 * time.Microsecond)
		}
	}()
	wg.Wait()

	jobs := waitAllTerminal(t, s, writers*perWriter, 120*time.Second)
	for _, j := range jobs {
		if j.State != JobDone {
			t.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
		}
	}
	s.Drain()
	select {
	case <-s.Drained():
	case <-time.After(60 * time.Second):
		t.Fatal("drain stuck")
	}
}

// TestMultiTenantConcurrency hammers the admission layer from several
// tenants at once — distinct weights, mixed priorities, a bounded
// batch so the preemption path runs concurrently with submissions —
// and cross-checks the per-tenant accounting afterwards. Under -race
// this pins that the WFQ state, tenant gauges, and preemption counter
// are only ever touched under the server's lock.
func TestMultiTenantConcurrency(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.EpochGap = 2 * time.Millisecond
		c.MaxQueue = 10_000
		c.MaxBatch = 3
		c.TenantQueue = 5_000
		c.TenantWeights = map[string]float64{"team-a": 3, "team-b": 1, "batch": 0}
	})
	s.Start(context.Background())

	tenants := []string{"team-a", "team-b", "batch", ""}
	priorities := []string{"high", "normal", "low"}
	const perTenant = 12
	programs := workload.Names()
	var wg sync.WaitGroup
	for ti, tenant := range tenants {
		wg.Add(1)
		go func(ti int, tenant string) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				spec := workload.JobSpec{
					Program:  programs[(ti+i)%len(programs)],
					Scale:    1,
					Tenant:   tenant,
					Priority: priorities[i%len(priorities)],
				}
				if _, err := s.Submit(spec); err != nil {
					t.Errorf("submit tenant %q: %v", tenant, err)
					return
				}
				if i%4 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(ti, tenant)
	}
	// Metrics scrapes race the scheduler's gauge updates (tenant depth,
	// oldest-wait, preemptions).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := s.WriteMetrics(io.Discard); err != nil {
				t.Errorf("metrics: %v", err)
				return
			}
			s.QueueDepth()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	total := len(tenants) * perTenant
	jobs := waitAllTerminal(t, s, total, 120*time.Second)
	perTenantDone := map[string]int{}
	for _, j := range jobs {
		if j.State != JobDone {
			t.Errorf("job %s (tenant %s) ended %s: %s", j.ID, j.Tenant, j.State, j.Error)
		}
		perTenantDone[j.Tenant]++
	}
	// The "" submitter canonicalizes to the default tenant.
	want := map[string]int{"team-a": perTenant, "team-b": perTenant, "batch": perTenant, "default": perTenant}
	for tenant, n := range want {
		if perTenantDone[tenant] != n {
			t.Errorf("tenant %s finished %d jobs, want %d", tenant, perTenantDone[tenant], n)
		}
	}
	var buf strings.Builder
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for tenant, n := range want {
		name := `corund_tenant_admitted_total{tenant="` + tenant + `"}`
		if v := metricValue(t, body, name); v != float64(n) {
			t.Errorf("%s = %v, want %d", name, v, n)
		}
		name = `corund_tenant_queued{tenant="` + tenant + `"}`
		if v := metricValue(t, body, name); v != 0 {
			t.Errorf("%s = %v, want 0 after drain", name, v)
		}
	}
	s.Drain()
	select {
	case <-s.Drained():
	case <-time.After(60 * time.Second):
		t.Fatal("drain stuck")
	}
}

// TestHTTPConcurrency exercises the same races through the HTTP layer
// and cross-checks /metrics totals against the job table afterwards.
func TestHTTPConcurrency(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.EpochGap = 2 * time.Millisecond
		c.MaxQueue = 10_000
	})
	s.Start(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var accepted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
					strings.NewReader(`{"program":"leukocyte"}`))
				if err != nil {
					t.Errorf("post: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusAccepted {
					accepted.Add(1)
				} else {
					t.Errorf("submit -> %d", resp.StatusCode)
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, path := range []string{"/v1/jobs", "/metrics", "/healthz", "/v1/trace"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Errorf("get %s: %v", path, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()

	waitAllTerminal(t, s, int(accepted.Load()), 120*time.Second)
	_, body := get(t, ts.URL+"/metrics")
	if v := metricValue(t, body, "corund_jobs_submitted_total"); v != float64(accepted.Load()) {
		t.Errorf("submitted %v, want %v", v, accepted.Load())
	}
	if v := metricValue(t, body, "corund_jobs_done_total"); v != float64(accepted.Load()) {
		t.Errorf("done %v, want %v", v, accepted.Load())
	}
	if v := metricValue(t, body, "corund_queue_depth"); v != 0 {
		t.Errorf("queue depth %v", v)
	}
	s.Drain()
	<-s.Drained()
}

// TestCapsNeverTorn flips SetCaps between two valid cap states while
// epochs run and plans are read: every plan was made under exactly one
// of the two — package cap and plane cap from the same call — never a
// combination nobody requested or journaled.
func TestCapsNeverTorn(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.EpochGap = time.Millisecond
		c.MaxQueue = 10_000
	})
	s.Start(context.Background())
	type caps struct{ pkg, pp1 float64 }
	states := []caps{{15, 0}, {18, 9}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the flipper
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			st := states[i%2]
			if err := s.SetCaps(units.Watts(st.pkg), apu.DomainCaps{PP1: units.Watts(st.pp1)}); err != nil {
				t.Errorf("set caps %+v: %v", st, err)
				return
			}
			runtime.Gosched()
		}
	}()
	seen := map[caps]int{}
	go func() { // the plan reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if pv, ok := s.Plan(); ok {
				got := caps{pv.CapWatts, pv.PP1CapWatts}
				if got != states[0] && got != states[1] {
					t.Errorf("epoch %d (%s) planned under %+v, which was never set", pv.Epoch, pv.State, got)
					return
				}
				seen[got]++
			}
			runtime.Gosched()
		}
	}()
	const jobs = 60
	for i := 0; i < jobs; i++ {
		if _, err := s.Submit(workload.JobSpec{Program: "lud", Scale: 1}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	waitAllTerminal(t, s, jobs, 120*time.Second)
	close(stop)
	wg.Wait()
	if len(seen) == 0 {
		t.Fatal("no plan was ever read")
	}
	t.Logf("plans read per cap state: %v", seen)
}
