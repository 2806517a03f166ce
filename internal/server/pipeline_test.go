package server

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"corun/internal/apu"
	"corun/internal/online"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// TestOneEpochEveryEntryPoint is the daemon's leg of the root package's
// test of the same name: the rescaled Fig. 11 batch, queued whole and
// served as the daemon's first epoch, is planned and simulated exactly
// as one direct online.Node.Run call at that epoch's seed plans and
// simulates it — same dispatch orders, exclusive set and makespan bits —
// under a package cap and under a PP1 plane cap. The dispatcher-driven baselines publish no plan; for them
// (and for the planned policies too) every job finishes on the device
// and at the instant Node.Run's completion for it says.
func TestOneEpochEveryEntryPoint(t *testing.T) {
	const seed = 41
	rng := rand.New(rand.NewSource(seed))
	batch := workload.Batch16()
	for _, in := range batch {
		in.Scale = float64(8000+rng.Intn(5000)) / 10000
	}
	for _, cc := range []struct {
		name    string
		cap     units.Watts
		domains apu.DomainCaps
	}{
		{"cap15", 15, apu.DomainCaps{}},
		{"pp1-9", 0, apu.DomainCaps{PP1: 9}},
	} {
		for _, pol := range []string{"hcs", "hcs+", "random", "default", "default-cpu"} {
			t.Run(cc.name+"/"+pol, func(t *testing.T) {
				s := newTestServer(t, func(c *Config) {
					c.Cap, c.Domains, c.Policy, c.Seed = cc.cap, cc.domains, pol, seed
				})
				ids := make([]string, len(batch))
				for i, in := range batch {
					j, err := s.Submit(workload.JobSpec{Program: in.Prog.Name, Scale: in.Scale})
					if err != nil {
						t.Fatal(err)
					}
					ids[i] = j.ID
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				s.Start(ctx)
				waitAllTerminal(t, s, len(batch), 60*time.Second)
				pv, ok := s.Plan()
				if !ok || pv.Epoch != 1 || !reflect.DeepEqual(pv.Jobs, ids) {
					t.Fatalf("the batch was not served as epoch 1 in submission order: %+v", pv)
				}

				epPlan, epPredicted, epRes, err := new(online.Node).Run(online.Options{
					Cfg: s.cfg.Machine, Mem: s.mem, Char: s.cfg.Char,
					Cap: cc.cap, Domains: cc.domains, Policy: pol,
				}, batch, epochSeed(seed, 1))
				if err != nil {
					t.Fatal(err)
				}
				var want PlanView
				fillPlan(&want, epPlan, epPredicted, s.Jobs())
				if !reflect.DeepEqual(pv.CPUOrder, want.CPUOrder) || !reflect.DeepEqual(pv.GPUOrder, want.GPUOrder) ||
					!reflect.DeepEqual(pv.Exclusive, want.Exclusive) {
					t.Errorf("daemon planned CPU %v GPU %v exclusive %v, Node.Run CPU %v GPU %v exclusive %v",
						pv.CPUOrder, pv.GPUOrder, pv.Exclusive, want.CPUOrder, want.GPUOrder, want.Exclusive)
				}
				if got, want := math.Float64bits(pv.SimulatedMakespanS), math.Float64bits(float64(epRes.Makespan)); got != want {
					t.Errorf("daemon makespan %v, Node.Run %v", pv.SimulatedMakespanS, epRes.Makespan)
				}
				// Epoch 1 starts at sim clock 0, so finish times are the
				// simulator's own, and equal finish times are an equal
				// completion order.
				jobs := s.Jobs()
				for _, c := range epRes.Completions {
					j := jobs[c.Inst.ID]
					if j.Device != c.Dev.String() || math.Float64bits(j.FinishedSimS) != math.Float64bits(float64(c.End)) {
						t.Errorf("daemon finished %s on %s at %v, Node.Run on %v at %v", j.ID, j.Device, j.FinishedSimS, c.Dev, c.End)
					}
				}
			})
		}
	}
}

// TestTraceEncodingsAgree serves a few epochs and reads GET /v1/trace
// both ways: the CSV rows and the JSON samples are the same epochs with
// the same values.
func TestTraceEncodingsAgree(t *testing.T) {
	s := newTestServer(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const epochs = 3
	for n, prog := range []string{"cfd", "dwt2d", "lud"} {
		if code, body := postJSON(t, ts.URL+"/v1/jobs", fmt.Sprintf(`{"program":%q}`, prog)); code != http.StatusAccepted {
			t.Fatalf("submit %s -> %d: %s", prog, code, body)
		}
		waitAllTerminal(t, s, n+1, 60*time.Second) // one job an epoch
	}

	code, body := get(t, ts.URL+"/v1/trace")
	if code != http.StatusOK {
		t.Fatalf("csv trace -> %d", code)
	}
	rows, err := csv.NewReader(strings.NewReader(body)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+epochs {
		t.Fatalf("csv trace has %d rows, want a header and %d epochs:\n%s", len(rows), epochs, body)
	}
	code, body = get(t, ts.URL+"/v1/trace?format=json")
	if code != http.StatusOK {
		t.Fatalf("json trace -> %d", code)
	}
	var tr struct {
		Series []struct {
			Name, Unit string
			Samples    []struct{ T, V float64 }
		}
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Series) != len(rows[0])-1 {
		t.Fatalf("json trace has %d series, csv %d columns", len(tr.Series), len(rows[0])-1)
	}
	for k, series := range tr.Series {
		if want := series.Name + "_" + series.Unit; rows[0][k+1] != want {
			t.Errorf("csv column %d is %q, json series %q", k+1, rows[0][k+1], want)
		}
		if len(series.Samples) != epochs {
			t.Fatalf("json series %s has %d samples, want %d", series.Name, len(series.Samples), epochs)
		}
		for e, sm := range series.Samples {
			row := rows[1+e]
			if got, want := row[0], fmt.Sprintf("%.3f", sm.T); got != want {
				t.Errorf("epoch %d: csv time %s, json %s", e, got, want)
			}
			if got, want := row[k+1], fmt.Sprintf("%.4f", sm.V); got != want {
				t.Errorf("epoch %d %s: csv %s, json %s", e, series.Name, got, want)
			}
		}
	}
}

// TestPartnerMap pins who a job's journaled and served partner is: the
// opposite-device job it overlapped longest with, by instance ID.
func TestPartnerMap(t *testing.T) {
	type run struct {
		id         int
		dev        apu.Device
		start, end units.Seconds
	}
	for _, tc := range []struct {
		name string
		runs []run // in completion order
		want map[int]int
	}{
		{"an overlapping CPU/GPU pair partners each other",
			[]run{{1, apu.GPU, 2, 8}, {0, apu.CPU, 0, 10}},
			map[int]int{0: 1, 1: 0}},
		{"the longest overlap wins",
			[]run{{1, apu.GPU, 0, 3}, {0, apu.CPU, 0, 10}, {2, apu.GPU, 3, 10}},
			map[int]int{0: 2, 1: 0, 2: 0}},
		{"same-device jobs never partner",
			[]run{{0, apu.CPU, 0, 10}, {1, apu.CPU, 0, 10}},
			map[int]int{}},
		{"no opposite-device overlap, no partner",
			[]run{{0, apu.CPU, 0, 5}, {2, apu.CPU, 7, 9}, {1, apu.GPU, 5, 10}},
			map[int]int{1: 2, 2: 1}},
	} {
		cs := make([]sim.Completion, len(tc.runs))
		for i, r := range tc.runs {
			cs[i] = sim.Completion{Inst: &workload.Instance{ID: r.id}, Dev: r.dev, Start: r.start, End: r.end}
		}
		if got := partnerMap(cs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: partners %v, want %v", tc.name, got, tc.want)
		}
	}
}
