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
	"corun/internal/trace"
	"corun/internal/units"
	"corun/internal/workload"
)

// TestOneEpochEveryEntryPoint is the daemon's leg of the root package's
// test of the same name: the rescaled Fig. 11 batch, queued whole and
// served as the daemon's first epoch, is planned and simulated exactly
// as one direct online.Node.Run call at that epoch's seed plans and
// simulates it — its GET /v1/plan view is the one the direct call's
// record renders — under a package cap and under a PP1 plane cap. The dispatcher-driven baselines publish no plan; for them
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

				ep, err := online.NewNode(s.cfg.Machine).Run(online.Options{
					Cfg: s.cfg.Machine, Mem: s.mem, Char: s.cfg.Char,
					Cap: cc.cap, Domains: cc.domains, Policy: pol,
				}, batch, epochSeed(seed, 1))
				if err != nil {
					t.Fatal(err)
				}
				if want := planView(1, s.ctl.Load(), 0, s.Jobs(), ep, nil); !reflect.DeepEqual(&pv, want) {
					t.Errorf("daemon served\n%+v\nNode.Run's record renders\n%+v", pv, *want)
				}
				// Epoch 1 starts at sim clock 0, so finish times are the
				// simulator's own, and equal finish times are an equal
				// completion order.
				jobs := s.Jobs()
				for _, c := range ep.Result.Completions {
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

// TestPlanViewSharesIDs holds planView to rendering each view of an
// epoch over the job-ID slices of the view before it: the running view
// shares the planning view's jobs, the done view the running view's
// jobs and orders.
func TestPlanViewSharesIDs(t *testing.T) {
	s := newTestServer(t, nil)
	batch := workload.Batch8()
	jobs := make([]Job, len(batch))
	for i := range jobs {
		jobs[i].ID = fmt.Sprintf("job-%06d", i)
	}
	ctl := s.ctl.Load()
	planning := planView(1, ctl, 0, jobs, nil, nil)
	var running *PlanView
	ep, err := online.NewNode(s.cfg.Machine).Run(online.Options{
		Cfg: s.cfg.Machine, Mem: s.mem, Char: s.cfg.Char, Cap: ctl.cap, Policy: "hcs+",
		Planned: func(ep *online.Epoch) { running = planView(1, ctl, 0, jobs, ep, planning) },
	}, batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := planView(1, ctl, 0, jobs, ep, running)
	if running.State != "running" || done.State != "done" || len(done.CPUOrder) == 0 || len(done.GPUOrder) == 0 {
		t.Fatalf("running %+v\ndone %+v", running, done)
	}
	if &running.Jobs[0] != &planning.Jobs[0] || &done.Jobs[0] != &planning.Jobs[0] ||
		&done.CPUOrder[0] != &running.CPUOrder[0] || &done.GPUOrder[0] != &running.GPUOrder[0] {
		t.Error("a view of the epoch copied the job IDs of the view before it")
	}
}

// TestTraceKeepsNewest holds the trace's bound: after maxTraceEpochs+3
// done epochs through traceEpoch, the step runEpoch takes, GET
// /v1/trace serves the newest maxTraceEpochs in clock order.
func TestTraceKeepsNewest(t *testing.T) {
	const extra = 3
	s := newTestServer(t, nil)
	for i := 0; i < maxTraceEpochs+extra; i++ {
		s.traceEpoch(&PlanView{Jobs: make([]string, 1+i%4), SimulatedMakespanS: float64(i), ClockEndS: float64(10 * i)})
	}
	var body strings.Builder
	if err := s.WriteTrace(&body, true); err != nil {
		t.Fatal(err)
	}
	var tr struct{ Series []*trace.Series }
	if err := json.Unmarshal([]byte(body.String()), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Series) != 3 {
		t.Fatalf("%d series, want 3", len(tr.Series))
	}
	makespan, jobs := tr.Series[0], tr.Series[2]
	if makespan.Len() != maxTraceEpochs || jobs.Len() != maxTraceEpochs {
		t.Fatalf("the trace holds %d and %d epochs, want %d", makespan.Len(), jobs.Len(), maxTraceEpochs)
	}
	for k := 0; k < maxTraceEpochs; k++ {
		i := extra + k
		want := trace.Sample{Time: units.Seconds(10 * i), Value: float64(i)}
		if got := makespan.At(k); got != want || jobs.At(k).Value != float64(1+i%4) {
			t.Fatalf("trace epoch %d: makespan %+v, %v jobs; want epoch %d: %+v, %d jobs", k, got, jobs.At(k).Value, i, want, 1+i%4)
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
