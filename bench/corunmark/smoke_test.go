package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestSmoke runs all four workloads end to end at a fiftieth of their
// size, two of them traced, and checks what the benchmark's contract
// promises of every run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds corund and runs every workload")
	}
	smokeWork := t.TempDir()
	build := exec.Command("go", "build", "-o", filepath.Join(smokeWork, "bin")+"/", "./probe", "corun/cmd/corund")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the daemon and the probe: %v\n%s", err, out)
	}
	if err := os.MkdirAll(filepath.Join(smokeWork, "data"), 0o755); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for i := range workloads {
		wl := &workloads[i]
		traced := wl.name == "plan-fig11" || wl.name == "fleet-trip"
		t.Run(wl.name, func(t *testing.T) {
			env := &runEnv{
				corund:  filepath.Join(smokeWork, "bin", "corund"),
				probe:   filepath.Join(smokeWork, "bin", "probe"),
				workDir: smokeWork,
				dataDir: filepath.Join(smokeWork, "data"),
				hc:      &http.Client{Timeout: 30 * time.Second},
				seed:    7,
				seconds: 0.2,
				trace:   traced,
			}
			res, err := env.run(wl)
			if err != nil {
				t.Fatal(err)
			}
			if !env.report(res) {
				t.Errorf("output checks failed: %v", res.problems)
			}
			if res.failed != 0 || res.attempted < 1 {
				t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
			}
			for _, m := range endToEnd {
				v, ok := res.e2e[m.Name]
				if !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (present: %v), want a finite non-zero number", m.Name, v, ok)
				}
				if !name.MatchString(m.Name) {
					t.Errorf("metric name %q", m.Name)
				}
			}
			known := map[string]bool{}
			for _, m := range perLayer {
				known[m.Name] = true
				if !name.MatchString(m.Name) {
					t.Errorf("metric name %q", m.Name)
				}
			}
			for n := range res.layer {
				if !known[n] {
					t.Errorf("run reports %s, which the per-layer table does not list", n)
				}
			}
			if traced {
				for _, n := range []string{"policy.plan_ms", "model.queries_per_epoch", "trace.coverage_pct"} {
					if res.layer[n] <= 0 {
						t.Errorf("traced run: %s = %v", n, res.layer[n])
					}
				}
				if _, err := os.Stat(env.tracePath(wl)); err != nil {
					t.Errorf("traced run wrote no trace: %v", err)
				}
			}
			if wl.name == "plan-fig11" && res.digest == "" {
				t.Error("plan-fig11 printed no digest")
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's own tables
// from drifting apart.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the sizes are for %d", spec.RunSeconds, refSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %+v, the harness has %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics, the harness has %d", len(got), kind, len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s metric %d: %+v, the harness has %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s metric %s: bound %v, the harness has %v", kind, g.Name, g.Bound, w.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 4.0]
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v, want 1, 4", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	// Trip 1: a 10 ms wait with two 2 ms polls inside it, after a 1 ms post.
	spans := []span{
		{ID: 1, Name: "client.post", Start: 0, End: 1e6, Trip: 1},
		{ID: 2, Name: "client.wait", Start: 1e6, End: 11e6, Trip: 1},
		{ID: 3, Name: "client.poll", Start: 2e6, End: 4e6, Parent: 2, Trip: 1},
		{ID: 4, Name: "client.poll", Start: 8e6, End: 10e6, Parent: 2, Trip: 1},
	}
	got := selfTimes(spans)
	for name, want := range map[string]float64{"client.post": 1, "client.wait": 6, "client.poll": 4} {
		if len(got[name]) != 1 || got[name][0] != want {
			t.Errorf("%s self time %v, want [%v]", name, got[name], want)
		}
	}
}
