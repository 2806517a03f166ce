package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/model"
)

// The model series show the pair-table cache reaching steady state: the
// first epoch of a program mix interpolates, a later epoch of the same
// programs (at another input scale) does not, and the table and
// feasible-list counts stay where the first epoch left them.
func TestModelMetricsReachSteadyState(t *testing.T) {
	char, err := model.Characterize(model.CharacterizeOptions{Cfg: apu.DefaultConfig(), Mem: memsys.Default()})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, func(c *Config) {
		c.Char = char
		c.EpochGap = 200 * time.Millisecond // the second pair lands in one batch too
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := get(t, ts.URL+"/metrics")
	if v := metricValue(t, body, "corund_model_pair_tables"); v != 0 {
		t.Errorf("pair tables before the first epoch = %v", v)
	}
	if v := metricValue(t, body, "corund_model_interpolations_total"); v != 0 {
		t.Errorf("interpolations before the first epoch = %v", v)
	}
	if v := metricValue(t, body, "corund_model_feasible_lists"); v != 0 {
		t.Errorf("feasible lists before the first epoch = %v", v)
	}

	submit := func(scale string) {
		for _, prog := range []string{"hotspot", "lud"} {
			if code, body := postJSON(t, ts.URL+"/v1/jobs", `{"program":"`+prog+`","scale":`+scale+`}`); code != http.StatusAccepted {
				t.Fatalf("submit -> %d: %s", code, body)
			}
		}
	}
	settled := func(done int) (tables, lists, interpolations float64) {
		waitAllTerminal(t, s, done, 60*time.Second)
		_, body := get(t, ts.URL+"/metrics")
		return metricValue(t, body, "corund_model_pair_tables"), metricValue(t, body, "corund_model_feasible_lists"),
			metricValue(t, body, "corund_model_interpolations_total")
	}
	// The first pair is queued before the scheduler starts, so it is
	// one batch whatever the host's timing.
	submit("1.0")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	tables, lists, interpolations := settled(2)
	if tables <= 0 || lists <= 0 || interpolations <= 0 {
		t.Fatalf("after the first epoch: %v tables, %v feasible lists, %v interpolations", tables, lists, interpolations)
	}
	if got := char.PairCacheStats(); float64(got.Tables) != tables || float64(got.FeasibleLists) != lists ||
		float64(got.Interpolations) != interpolations {
		t.Errorf("series (%v, %v, %v) disagree with the cache %+v", tables, lists, interpolations, got)
	}
	submit("1.2")
	tables2, lists2, interpolations2 := settled(4)
	if tables2 != tables || lists2 != lists || interpolations2 != interpolations {
		t.Errorf("same programs again: tables %v -> %v, feasible lists %v -> %v, interpolations %v -> %v",
			tables, tables2, lists, lists2, interpolations, interpolations2)
	}
}
