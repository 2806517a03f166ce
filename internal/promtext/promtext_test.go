package promtext

import (
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestRegistryRendersTextFormat(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("jobs_total", "Jobs seen.")
	g := r.NewGauge("queue_depth", "Queued jobs.")
	v := r.NewCounterVec("sched_total", "Per-policy schedules.", "policy")
	h := r.NewHistogram("latency_seconds", "Epoch latency.", []float64{0.01, 0.1, 1})

	c.Add(3)
	c.Inc()
	g.Set(7)
	g.Add(-2)
	v.Inc("hcs+")
	v.Add("random", 2)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99)

	var buf strings.Builder
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	want := []string{
		"# HELP jobs_total Jobs seen.",
		"# TYPE jobs_total counter",
		"jobs_total 4",
		"# TYPE queue_depth gauge",
		"queue_depth 5",
		`sched_total{policy="hcs+"} 1`,
		`sched_total{policy="random"} 2`,
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.01"} 0`,
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 2`,
		`latency_seconds_bucket{le="+Inf"} 3`,
		"latency_seconds_sum 99.55",
		"latency_seconds_count 3",
	}
	for _, w := range want {
		if !strings.Contains(out, w+"\n") {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}

	// Families render in name order: histogram "latency..." before
	// counter "jobs..."? No — lexicographic: jobs, latency, queue, sched.
	order := []string{"jobs_total", "latency_seconds", "queue_depth", "sched_total"}
	last := -1
	for _, name := range order {
		i := strings.Index(out, "# HELP "+name)
		if i < 0 || i < last {
			t.Fatalf("family %s out of order at %d (prev %d)", name, i, last)
		}
		last = i
	}

	// Every non-comment line is "name{labels} value" shaped.
	lineRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"\})? [^ ]+$`)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRe.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	v := r.NewGaugeVec("tenant_queued", "Queued jobs by tenant.", "tenant")
	v.Set("team-a", 5)
	v.Set("team-a", 3) // Set replaces, unlike a counter
	v.Add("team-b", 2)
	v.Add("team-b", -1)
	v.Set("zzz", 0)

	if got := v.Value("team-a"); got != 3 {
		t.Fatalf("Value(team-a) = %v, want 3", got)
	}
	if got := v.Value("unset"); got != 0 {
		t.Fatalf("Value(unset) = %v, want 0", got)
	}

	var buf strings.Builder
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := []string{
		"# TYPE tenant_queued gauge",
		`tenant_queued{tenant="team-a"} 3`,
		`tenant_queued{tenant="team-b"} 1`,
		`tenant_queued{tenant="zzz"} 0`,
	}
	for _, w := range want {
		if !strings.Contains(out, w+"\n") {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
	// Label values render in sorted order for a stable exposition.
	if strings.Index(out, `tenant="team-a"`) > strings.Index(out, `tenant="team-b"`) {
		t.Errorf("label values out of order:\n%s", out)
	}
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("hits_total", "Hits.").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 1") {
		t.Errorf("body %q", rec.Body.String())
	}
}

func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("ok_total", "x")
	for _, fn := range []func(){
		func() { r.NewCounter("ok_total", "dup") },
		func() { r.NewCounter("bad name", "x") },
		func() { r.NewCounterVec("v_total", "x", "bad label") },
		func() { r.NewHistogram("h", "x", []float64{2, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		}()
	}
	// Counters reject negative deltas.
	c := r.NewCounter("neg_total", "x")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative Add accepted")
			}
		}()
		c.Add(-1)
	}()
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "x")
	g := r.NewGauge("g", "x")
	v := r.NewCounterVec("v_total", "x", "k")
	h := r.NewHistogram("h_seconds", "x", []float64{1, 10})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.Inc()
				g.Add(1)
				v.Inc("a")
				h.Observe(float64(j % 20))
				if j%50 == 0 {
					var sb strings.Builder
					_ = r.Write(&sb)
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 1600 || g.Value() != 1600 || v.Value("a") != 1600 || h.Count() != 1600 {
		t.Errorf("lost updates: c=%v g=%v v=%v h=%v",
			c.Value(), g.Value(), v.Value("a"), h.Count())
	}
}
