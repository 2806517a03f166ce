package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"corun"
)

const planPolicy = "hcs+"

// setupPlanSeed seeds the planner in every set-up and rebuild: they
// time one fixed batch, as a daemon's cold boot does (its -seed is 1),
// and how long HCS+ refines a batch depends on its seed by a quarter.
const setupPlanSeed = 1

// kernelsPerRebuild is how often the kernel is timed before each
// set-up and each rebuild.
const kernelsPerRebuild = 3

// recheckEpochs is how many epochs are planned a second time from the
// same seed; their digest must equal the first pass's.
const recheckEpochs = 40

// planned is one epoch through the facade.
type planned struct {
	w      *corun.Workload
	plan   *corun.Schedule
	report *corun.Report
}

// planEpoch is the library path's unit of work, as a daemon epoch does
// it: profile and model the batch, plan it, run the plan.
func planEpoch(sys *corun.System, batch []*corun.Instance, seed int64) (planned, error) {
	w, err := sys.Prepare(batch)
	if err != nil {
		return planned{}, err
	}
	plan, err := w.ScheduleSeeded(planPolicy, seed)
	if err != nil {
		return planned{}, err
	}
	report, err := w.Run(plan)
	return planned{w, plan, report}, err
}

// timeFirstEpoch builds a system at the reference cap, takes it through
// its first epoch and returns the seconds that took.
func timeFirstEpoch(batch []*corun.Instance, seed int64, opts ...corun.Option) (float64, error) {
	start := time.Now()
	sys, err := corun.NewSystem(append([]corun.Option{corun.WithPowerCap(capWatts)}, opts...)...)
	if err != nil {
		return 0, err
	}
	if _, err := planEpoch(sys, batch, seed); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// rescaled copies the Fig. 11 batch with a seeded input size per
// instance, so every epoch's predictor memo starts cold, as it does in
// the daemon.
func rescaled(base []*corun.Instance, rng *rand.Rand) []*corun.Instance {
	out := make([]*corun.Instance, len(base))
	for i, in := range base {
		c := *in
		c.Scale = drawScale(rng)
		out[i] = &c
	}
	return out
}

func selfCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// checkPlan is the output check of one epoch: every job placed exactly
// once and no cap violation in the run.
func checkPlan(p planned, jobs int) error {
	seen := make([]int, jobs)
	for _, order := range [][]int{p.plan.CPUOrder, p.plan.GPUOrder} {
		for _, j := range order {
			if j < 0 || j >= jobs {
				return fmt.Errorf("plan places job %d of %d", j, jobs)
			}
			seen[j]++
		}
	}
	for j, n := range seen {
		if n != 1 {
			return fmt.Errorf("plan places job %d %d times", j, n)
		}
	}
	if p.report.CapViolations != 0 {
		return fmt.Errorf("run violated the cap %d times", p.report.CapViolations)
	}
	return nil
}

func digestEpoch(h hash.Hash, p planned) {
	var exclusive []int
	for j, on := range p.plan.Exclusive {
		if on {
			exclusive = append(exclusive, j)
		}
	}
	sort.Ints(exclusive)
	fmt.Fprintf(h, "%v|%v|%v|%x\n", p.plan.CPUOrder, p.plan.GPUOrder, exclusive, math.Float64bits(float64(p.report.Makespan)))
}

// runPlan measures plan-fig11.
func (e *runEnv) runPlan(wl *workloadDef) (*result, error) {
	res := newResult()
	base := corun.Batch16()
	jobs := len(base)

	sys, err := corun.NewSystem(corun.WithPowerCap(capWatts))
	if err != nil {
		return nil, err
	}
	var saved bytes.Buffer
	if err := sys.SaveCharacterization(&saved); err != nil {
		return nil, err
	}

	perSeg := scaled(wl.epochsPerSegment, e.seconds, 1, boundEvery)
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	var spans []span
	var replay [][]batchJob // segment 0's batches, for the probe
	rng := rand.New(rand.NewSource(e.seed))
	digest := sha256.New()
	var prefix []byte // digest after recheckEpochs epochs
	var seg segSeries
	var makespans, bounds, simS, maxTemp float64
	var throttles, bounded int
	var mem0, mem1 runtime.MemStats
	var mallocs, allocBytes uint64 // over the segments only
	var setups, rebuilds timedUnits
	k := newKernel()
	for s := 0; ; s++ {
		// At every edge of the window: set-ups from nothing (setup_s)
		// and rebuilds from the saved bytes (recover_s), each through
		// its first planned and simulated batch. Each starts from a
		// collected heap, so that what the one before it left behind is
		// not collected on its time.
		for n := shareAt(repeats(setupRepeats, e.seconds), segments+1, s); n > 0; n-- {
			runtime.GC()
			slow := k.slowdown(kernelsPerRebuild)
			d, err := timeFirstEpoch(base, setupPlanSeed)
			if err != nil {
				return nil, err
			}
			setups.add(d, slow)
		}
		for n := shareAt(repeats(rebuildRepeats, e.seconds), segments+1, s); n > 0; n-- {
			runtime.GC()
			slow := k.slowdown(kernelsPerRebuild)
			d, err := timeFirstEpoch(base, setupPlanSeed, corun.WithCharacterizationFrom(bytes.NewReader(saved.Bytes())))
			if err != nil {
				return nil, err
			}
			rebuilds.add(d, slow)
		}
		if s == segments {
			break
		}
		runtime.ReadMemStats(&mem0)
		// Every epoch as measured and in reference time, by the kernel
		// timed right after it: a burst of the host that slows an epoch
		// slows its kernel too.
		var walls, refWalls, slows []float64
		var wallS, cpuS, refWallS, refCPUS, segSimS float64
		for i := 0; i < perSeg; i++ {
			epoch := s*perSeg + i
			batch := rescaled(base, rng)
			cpu0, err := selfCPU()
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			p, err := planEpoch(sys, batch, e.seed+int64(epoch))
			t1 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("epoch %d: %w", epoch, err)
			}
			cpu1, err := selfCPU()
			if err != nil {
				return nil, err
			}
			res.attempted += jobs
			if err := checkPlan(p, jobs); err != nil {
				res.failed += jobs
				res.problem("epoch %d: %v", epoch, err)
			}
			wall, cpu, slow := t1.Sub(t0).Seconds(), cpu1-cpu0, k.ms()/refKernelMs
			digestEpoch(digest, p)
			if epoch+1 == recheckEpochs {
				prefix = digest.Sum(nil)
			}
			walls = append(walls, 1000*wall)
			refWalls = append(refWalls, 1000*wall/slow)
			slows = append(slows, slow)
			wallS += wall
			cpuS += cpu
			refWallS += wall / slow
			refCPUS += cpu / slow
			segSimS += float64(p.report.Makespan)
			throttles += p.report.Throttles
			maxTemp = max(maxTemp, p.report.MaxTempC)
			// A traced run replays segment 0 stage by stage in the probe;
			// the facade's spans of the same epochs go beside the probe's.
			if s == 0 && tr != nil {
				spans = append(spans, tr.span("facade.epoch", t0, t1, 0, int64(epoch)+1))
				b := make([]batchJob, jobs)
				for k, in := range batch {
					b[k] = batchJob{Program: in.Prog.Name, Scale: in.Scale}
				}
				replay = append(replay, b)
			}
			// Outside the timed interval: the epoch against its bound.
			if epoch%boundEvery == 0 {
				lb, err := p.w.LowerBound()
				if err != nil {
					return nil, err
				}
				if p.report.Makespan < lb {
					res.problem("epoch %d: makespan %v below its lower bound %v", epoch, p.report.Makespan, lb)
				}
				makespans += float64(p.report.Makespan)
				bounds += float64(lb)
				bounded++
			}
		}
		segJobs := float64(jobs * perSeg)
		seg.measured.add(segJobs/wallS, median(walls), percentile(walls, 95), 1000*cpuS/segJobs, 100*wallS/segSimS)
		seg.ref.add(segJobs/refWallS, median(refWalls), percentile(refWalls, 95), 1000*refCPUS/segJobs, 100*refWallS/segSimS)
		seg.slow = append(seg.slow, median(slows))
		simS += segSimS
		runtime.ReadMemStats(&mem1)
		mallocs += mem1.Mallocs - mem0.Mallocs
		allocBytes += mem1.TotalAlloc - mem0.TotalAlloc
	}
	seg.report(res, perSeg)
	res.setTimed("setup_s", median(setups.ref), median(setups.measured), len(setups.ref))
	res.setTimed("recover_s", median(rebuilds.ref), median(rebuilds.measured), len(rebuilds.ref))
	res.set("makespan_vs_bound", makespans/bounds, bounded)
	res.digest = hex.EncodeToString(digest.Sum(nil))

	// The same seed must give the same plans and makespans.
	n := min(recheckEpochs, segments*perSeg)
	rng = rand.New(rand.NewSource(e.seed))
	again := sha256.New()
	for epoch := 0; epoch < n; epoch++ {
		p, err := planEpoch(sys, rescaled(base, rng), e.seed+int64(epoch))
		if err != nil {
			return nil, err
		}
		digestEpoch(again, p)
	}
	if !bytes.Equal(again.Sum(nil), prefix) {
		res.problem("replanning the first %d epochs from the same seed gave another digest", n)
	}

	total := float64(jobs * segments * perSeg)
	L := res.layer
	L["sim.throttles_per_epoch"] = float64(throttles) / float64(segments*perSeg)
	L["sim.max_temp_c"] = maxTemp
	L["sim.makespan_sum_s"] = simS
	L["runtime.allocs_per_job"] = float64(mallocs) / total
	L["runtime.alloc_kb_per_job"] = float64(allocBytes) / 1024 / total
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	L["runtime.peak_rss_mb"] = float64(ru.Maxrss) / 1024
	if tr != nil {
		probeSpans, err := e.stageReplay(wl, nil, replay, res)
		if err != nil {
			return nil, err
		}
		// The same epochs, whole through the facade and stage by stage
		// in the probe (which also computes the bound, left out here).
		var facadeMs, probeMs []float64
		for _, sp := range spans {
			facadeMs = append(facadeMs, float64(sp.End-sp.Start)/1e6)
		}
		for _, sp := range probeSpans {
			if sp.Name == "probe.epoch" {
				probeMs = append(probeMs, float64(sp.End-sp.Start)/1e6)
			}
		}
		L["harness.trace_overhead_pct"] = 100 * ((median(probeMs)-L["core.bound_ms"])/median(facadeMs) - 1)
		if err := writeTrace(e.tracePath(wl), spans, probeSpans); err != nil {
			return nil, err
		}
	}
	return res, nil
}
