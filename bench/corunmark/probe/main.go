// Command probe is corunmark's traced-run stage replay: it pushes the
// batches a run planned, and the requests it sent, through the
// exported functions of each layer, one goroutine, one stage at a
// time, and times the calls. It is the only part of the benchmark that
// imports corun/internal/...; README.md lists the functions it binds
// to. It reads one wire.Input on standard input and writes one
// wire.Output on standard output.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"

	"corun"
	"corun/bench/corunmark/wire"
	"corun/internal/admission"
	"corun/internal/core"
	"corun/internal/journal"
	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/policy"
	"corun/internal/profile"
	"corun/internal/workload"
)

// fig11Jobs is the size of the terminal-record batch the journal
// stage appends in one call: one Fig. 11 epoch's worth.
const fig11Jobs = 16

func main() {
	var in wire.Input
	if err := json.NewDecoder(os.Stdin).Decode(&in); err != nil {
		fatal(fmt.Errorf("reading input: %w", err))
	}
	out := wire.Output{Metrics: map[string]float64{}}
	cpuMs := 0.0 // single-threaded CPU the replayed stages burn per job
	if len(in.Bodies) > 0 {
		ms, err := replayServing(&in, &out)
		if err != nil {
			fatal(err)
		}
		cpuMs += ms
	}
	ms, err := replayPlanning(&in, &out)
	if err != nil {
		fatal(err)
	}
	out.Metrics["trace.replay_cpu_ms_per_job"] = cpuMs + ms
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "probe:", err)
	os.Exit(1)
}

func selfCPU() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stage times fn, a loop over ops operations, and returns the wall
// microseconds and the CPU milliseconds per operation.
func stage(ops int, fn func() error) (wallUs, cpuMs float64, err error) {
	cpu0, t0 := selfCPU(), time.Now()
	err = fn()
	wall, cpu := time.Since(t0), selfCPU()-cpu0
	return float64(wall) / 1e3 / float64(ops), 1000 * cpu / float64(ops), err
}

// replayPlanning takes every batch through the stages of one epoch,
// one span per stage, and returns the CPU milliseconds per job of the
// stages a daemon epoch runs (all but the lower bound).
func replayPlanning(in *wire.Input, out *wire.Output) (cpuMsPerJob float64, err error) {
	if len(in.Batches) == 0 {
		return 0, fmt.Errorf("no batch to replay")
	}
	opts := []corun.Option{corun.WithPowerCap(in.CapWatts)}
	if in.TMaxC != 0 {
		opts = append(opts, corun.WithThermalLimit(in.TMaxC))
	}
	sys, err := corun.NewSystem(opts...)
	if err != nil {
		return 0, err
	}
	cfg, mem, capW := sys.Machine(), memsys.Default(), corun.Watts(in.CapWatts)
	char, err := model.Characterize(model.CharacterizeOptions{Cfg: cfg, Mem: mem})
	if err != nil {
		return 0, err
	}

	origin := time.Now()
	var nextID int64
	var hits, misses uint64
	var jobs int
	var boundCPU float64
	cpu0 := selfCPU()
	for b, members := range in.Batches {
		batch, err := wire.Instances(members)
		if err != nil {
			return 0, err
		}
		jobs += len(batch)
		trip := int64(b + 1)
		nextID++
		root := wire.Span{ID: nextID, Name: "probe.epoch", Start: int64(time.Since(origin)), Trip: trip}
		timed := func(name string, fn func() error) error {
			t0 := time.Since(origin)
			err := fn()
			nextID++
			out.Spans = append(out.Spans, wire.Span{ID: nextID, Name: name, Start: int64(t0), End: int64(time.Since(origin)), Parent: root.ID, Trip: trip})
			if err != nil {
				return fmt.Errorf("batch %d: %s: %w", b, name, err)
			}
			return nil
		}

		var prof *profile.Standalone
		var cached *model.CachedPredictor
		var cx *core.Context
		var plan *core.Schedule
		steps := []struct {
			name string
			fn   func() error
		}{
			{"profile.collect", func() (err error) {
				prof, err = profile.Collect(cfg, mem, batch)
				return err
			}},
			{"model.predictor", func() error {
				pred, err := model.NewPredictor(char, prof)
				if err != nil {
					return err
				}
				cached, err = model.NewCachedPredictor(pred, cfg)
				return err
			}},
			{"core.context", func() (err error) {
				cx, err = core.NewContext(cached, cfg, capW)
				return err
			}},
			{"policy.plan", func() (err error) {
				plan, err = policy.Plan(in.Policy, cx, policy.Options{Seed: in.Seed + int64(b)})
				return err
			}},
			{"core.predict", func() error {
				_, err := cx.PredictedMakespan(plan)
				return err
			}},
			{"sim.execute", func() error {
				_, err := cx.Execute(plan, batch, core.ExecOptions{Cfg: cfg, Mem: mem, Cap: capW})
				return err
			}},
			{"core.bound", func() error {
				c := selfCPU()
				_, err := cx.LowerBound()
				boundCPU += selfCPU() - c
				return err
			}},
		}
		for _, s := range steps {
			if err := timed(s.name, s.fn); err != nil {
				return 0, err
			}
		}
		root.End = int64(time.Since(origin))
		out.Spans = append(out.Spans, root)
		st := cached.Stats()
		hits += st.Hits
		misses += st.Misses
	}
	cpu := selfCPU() - cpu0 - boundCPU
	out.Metrics["model.cache_hit_pct"] = 100 * float64(hits) / float64(hits+misses)
	out.Metrics["model.queries_per_epoch"] = float64(hits+misses) / float64(len(in.Batches))
	return 1000 * cpu / float64(jobs), nil
}

// replayServing takes the request bodies through the serving stages:
// decode, admission in batch-sized rounds, a journal append per
// submission and one per batch of terminal records, then a recovery
// of that journal. It returns the stages' CPU milliseconds per job.
func replayServing(in *wire.Input, out *wire.Output) (cpuMsPerJob float64, err error) {
	n := len(in.Bodies)
	bodies := make([][]byte, n)
	for i, b := range in.Bodies {
		bodies[i] = []byte(b)
	}
	round := in.MaxBatch
	if round <= 0 {
		round = 16
	}

	specs := make([]workload.JobSpec, n)
	us, cpu, err := stage(n, func() error {
		for i, b := range bodies {
			if specs[i], err = workload.DecodeJobSpecBytes(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	out.Metrics["workload.decode_us"] = us
	cpuMsPerJob += cpu

	q, err := admission.New(admission.Config{Weights: in.Weights, MaxQueue: 1000000})
	if err != nil {
		return 0, err
	}
	entries := make([]admission.Entry, n)
	now := time.Now()
	for i, s := range specs {
		class, err := admission.ParseClass(s.Priority)
		if err != nil {
			return 0, err
		}
		entries[i] = admission.Entry{ID: "job-" + strconv.Itoa(i), Tenant: s.Tenant, Class: class, EnqueuedAt: now}
	}
	var addNs, selectNs time.Duration
	selected := 0
	cpu0 := selfCPU()
	for lo := 0; lo < n; lo += round {
		hi := min(lo+round, n)
		t0 := time.Now()
		for _, e := range entries[lo:hi] {
			if err := q.Add(e); err != nil {
				return 0, err
			}
		}
		t1 := time.Now()
		selected += len(q.SelectBatch(round, t1))
		addNs += t1.Sub(t0)
		selectNs += time.Since(t1)
	}
	if selected != n {
		return 0, fmt.Errorf("admission selected %d of %d entries", selected, n)
	}
	out.Metrics["admission.add_us"] = float64(addNs) / 1e3 / float64(n)
	out.Metrics["admission.select_us_per_job"] = float64(selectNs) / 1e3 / float64(n)
	cpuMsPerJob += 1000 * (selfCPU() - cpu0) / float64(n)

	if err := os.MkdirAll(in.Dir, 0o755); err != nil {
		return 0, err
	}
	jl, _, _, err := journal.Open(journal.Options{Dir: in.Dir, Fsync: journal.FsyncAlways})
	if err != nil {
		return 0, err
	}
	record := func(i int, typ journal.Type, state string) journal.Record {
		s := specs[i]
		return journal.Record{Type: typ, Job: &journal.JobRecord{
			ID: entries[i].ID, Program: s.Program, Scale: s.Scale, Label: s.Label,
			Tenant: s.Tenant, Priority: s.Priority, SubmittedAt: now, State: state,
		}}
	}
	us, cpu, err = stage(n, func() error {
		for i := range specs {
			if err := jl.Append(record(i, journal.TypeJobSubmitted, "queued")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	out.Metrics["journal.append1_us"] = us
	cpuMsPerJob += cpu

	rounds := n / fig11Jobs
	us, cpu, err = stage(rounds, func() error {
		recs := make([]journal.Record, fig11Jobs)
		for r := 0; r < rounds; r++ {
			for k := range recs {
				recs[k] = record(r*fig11Jobs+k, journal.TypeJobState, "done")
			}
			if err := jl.Append(recs...); err != nil {
				return err
			}
		}
		return jl.Sync()
	})
	if err != nil {
		return 0, err
	}
	out.Metrics["journal.append16_us"] = us
	cpuMsPerJob += cpu / fig11Jobs
	if err := jl.Close(); err != nil {
		return 0, err
	}

	t0 := time.Now()
	jl, _, stats, err := journal.Open(journal.Options{Dir: in.Dir, Fsync: journal.FsyncAlways})
	if err != nil {
		return 0, err
	}
	opened := time.Since(t0)
	if err := jl.Close(); err != nil {
		return 0, err
	}
	if stats.Jobs != n {
		return 0, fmt.Errorf("journal recovered %d of %d jobs", stats.Jobs, n)
	}
	out.Metrics["journal.open_ms_per_kjob"] = float64(opened) / 1e6 / (float64(n) / 1000)
	return cpuMsPerJob, nil
}
