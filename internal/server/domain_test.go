package server

// Domain-cap API and metrics tests: the /v1/cap plane fields
// round-trip and merge with absent fields, the domain and thermal
// series appear on /metrics after an epoch, and plane caps survive a
// journal restart.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"corun/internal/apu"
	"corun/internal/journal"
)

func TestCapDomainRoundTrip(t *testing.T) {
	s := newTestServer(t, nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// GET before any change reports the configured package cap and
	// unconfigured planes.
	if code, body := get(t, ts.URL+"/v1/cap"); code != http.StatusOK ||
		!strings.Contains(body, `"cap_watts": 15`) || !strings.Contains(body, `"pp0_watts": 0`) {
		t.Fatalf("get cap -> %d: %s", code, body)
	}

	// Set both plane caps alongside the package cap.
	code, body := postJSON(t, ts.URL+"/v1/cap", `{"cap_watts":14,"pp0_watts":6,"pp1_watts":9}`)
	if code != http.StatusOK {
		t.Fatalf("set caps -> %d: %s", code, body)
	}
	if dc := s.DomainCaps(); dc.PP0 != 6 || dc.PP1 != 9 {
		t.Fatalf("DomainCaps after set = %+v, want {6 9}", dc)
	}
	if _, body := get(t, ts.URL+"/v1/cap"); !strings.Contains(body, `"pp0_watts": 6`) || !strings.Contains(body, `"pp1_watts": 9`) {
		t.Fatalf("get cap did not round-trip planes: %s", body)
	}

	// A package-only update must not clear the plane caps: absent
	// fields merge with the current values.
	if code, body := postJSON(t, ts.URL+"/v1/cap", `{"cap_watts":13}`); code != http.StatusOK {
		t.Fatalf("package-only update -> %d: %s", code, body)
	}
	if dc := s.DomainCaps(); dc.PP0 != 6 || dc.PP1 != 9 {
		t.Fatalf("package-only update cleared planes: %+v", dc)
	}
	// And a plane-only update keeps the package cap.
	if code, body := postJSON(t, ts.URL+"/v1/cap", `{"pp1_watts":0}`); code != http.StatusOK {
		t.Fatalf("plane-only update -> %d: %s", code, body)
	}
	if s.Cap() != 13 || s.DomainCaps().PP1 != 0 || s.DomainCaps().PP0 != 6 {
		t.Fatalf("plane-only update: cap=%v dc=%+v", s.Cap(), s.DomainCaps())
	}

	// An empty body and an infeasible plane cap are both rejected.
	if code, _ := postJSON(t, ts.URL+"/v1/cap", `{}`); code != http.StatusBadRequest {
		t.Errorf("empty body -> %d, want 400", code)
	}
	if code, body := postJSON(t, ts.URL+"/v1/cap", `{"pp0_watts":0.01}`); code != http.StatusBadRequest || !strings.Contains(body, "apu:") {
		t.Errorf("infeasible plane cap -> %d: %s", code, body)
	}
}

func TestDomainMetricsExposed(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Domains = apu.DomainCaps{PP1: 9}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body := postJSON(t, ts.URL+"/v1/jobs", `{"program":"hotspot"}`); code != http.StatusAccepted {
		t.Fatalf("submit -> %d: %s", code, body)
	}
	if code, body := postJSON(t, ts.URL+"/v1/jobs", `{"program":"lud"}`); code != http.StatusAccepted {
		t.Fatalf("submit -> %d: %s", code, body)
	}
	waitAllTerminal(t, s, 2, 60*time.Second)

	_, body := get(t, ts.URL+"/metrics")
	if v := metricValue(t, body, `corund_domain_cap_watts{domain="pp1"}`); v != 9 {
		t.Errorf("pp1 cap gauge = %v, want 9", v)
	}
	pp0 := metricValue(t, body, `corund_domain_watts{domain="pp0"}`)
	pp1 := metricValue(t, body, `corund_domain_watts{domain="pp1"}`)
	if pp0 <= 0 || pp1 < 0 {
		t.Errorf("domain watts pp0=%v pp1=%v after an epoch", pp0, pp1)
	}
	if temp := metricValue(t, body, "corund_temp_celsius"); temp <= 0 {
		t.Errorf("temp gauge = %v, want > ambient after an epoch", temp)
	}
	// throttle counter must exist (zero is fine on an un-throttled run).
	if v := metricValue(t, body, "corund_throttle_total"); v < 0 {
		t.Errorf("throttle counter = %v", v)
	}
	// Exactly one binding-constraint series holds 1.
	ones := 0
	for _, c := range bindingConstraints {
		if metricValue(t, body, `corund_binding_constraint{constraint="`+c+`"}`) == 1 {
			ones++
		}
	}
	if ones != 1 {
		t.Errorf("binding constraint gauges: %d series at 1, want exactly 1 in:\n%s", ones, body)
	}
}

// On a node whose heatsink binds below the cap — a 45 °C trip point
// holds the default machine to P_sus = 9.375 W for ever — the epoch
// plans under the heatsink's budget cap: GET /v1/plan reports it beside
// the configured cap, with the temperature the epoch started at, and
// corund_plan_cap_watts repeats it.
func TestPlanCapExposed(t *testing.T) {
	m := apu.DefaultConfig()
	tp := m.Thermal
	tp.TMaxC = 45
	s := newTestServer(t, func(c *Config) { c.Machine = m.WithThermal(tp) })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, program := range []string{"hotspot", "lud"} {
		if code, body := postJSON(t, ts.URL+"/v1/jobs", `{"program":"`+program+`"}`); code != http.StatusAccepted {
			t.Fatalf("submit -> %d: %s", code, body)
		}
	}
	waitAllTerminal(t, s, 2, 60*time.Second)
	pv, ok := s.Plan()
	if !ok || pv.State != "done" || pv.CapWatts != 15 || pv.PlanCapWatts < 9.375 || pv.PlanCapWatts >= 15 || pv.StartTempC < tp.AmbientC {
		t.Fatalf("plan view %+v: want a budget cap in [9.375, 15) W and a start temperature", pv)
	}
	_, body := get(t, ts.URL+"/metrics")
	if v := metricValue(t, body, "corund_plan_cap_watts"); v != pv.PlanCapWatts {
		t.Errorf("plan cap gauge = %v, the plan view says %v", v, pv.PlanCapWatts)
	}
}

func TestDomainCapRecovery(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, func(c *Config) {
		c.DataDir = dir
		c.Fsync = journal.FsyncAlways
	})
	ts := httptest.NewServer(s1.Handler())
	if code, body := postJSON(t, ts.URL+"/v1/cap", `{"cap_watts":14,"pp0_watts":6,"pp1_watts":9}`); code != http.StatusOK {
		t.Fatalf("set caps -> %d: %s", code, body)
	}
	ts.Close()
	s1.Close()

	s2 := newTestServer(t, func(c *Config) {
		c.DataDir = dir
		c.Fsync = journal.FsyncAlways
	})
	defer s2.Close()
	if got := s2.Cap(); got != 14 {
		t.Errorf("recovered cap %v, want 14", got)
	}
	if dc := s2.DomainCaps(); dc.PP0 != 6 || dc.PP1 != 9 {
		t.Errorf("recovered plane caps %+v, want {6 9}", dc)
	}
	// The recovered caps are live on the API and the gauges.
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if _, body := get(t, ts2.URL+"/v1/cap"); !strings.Contains(body, `"pp0_watts": 6`) {
		t.Errorf("recovered caps not served: %s", body)
	}
	_, mbody := get(t, ts2.URL+"/metrics")
	if v := metricValue(t, mbody, `corund_domain_cap_watts{domain="pp0"}`); v != 6 {
		t.Errorf("recovered pp0 cap gauge = %v, want 6", v)
	}
}
