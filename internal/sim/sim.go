// Package sim is the discrete-event co-run simulator: the reproduction's
// stand-in for executing OpenCL programs on the physical APU.
//
// The simulator advances time in piecewise-constant segments. Within a
// segment the set of running jobs, the device frequencies, and each
// job's current phase are fixed, so execution rates follow directly
// from the memory-system arbitration; the next event is the earliest
// phase completion, job completion, or power-sample tick. Package power
// is integrated exactly over every segment and reported as 1 Hz
// interval averages, mirroring RAPL-style measurement.
//
// The simulator also reproduces the pathology the paper attributes to
// the Linux default schedule: when several OpenCL CPU jobs are launched
// at once they time-share the cores, paying a context-switch overhead
// and losing cache locality (their aggregate memory traffic inflates).
package sim

import (
	"fmt"
	"math"
	"sync/atomic"

	"corun/internal/apu"
	"corun/internal/kernelsim"
	"corun/internal/memsys"
	"corun/internal/trace"
	"corun/internal/units"
	"corun/internal/workload"
)

// eps is the simulator's internal time/work tolerance.
const eps = 1e-9

// Machine constants of the substitution (DESIGN.md §1). Power is
// sampled at RAPL's 1 Hz; the reactive governor ticks four times as
// often, since hardware power controllers react faster than the 1 Hz
// observability sampling. A multiprogrammed CPU loses csOverhead of
// each job's throughput to context switches and inflates the jobs'
// memory traffic by localityInflation, per job beyond the first.
const (
	sampleInterval    units.Seconds = 1
	governorInterval  units.Seconds = 0.25
	csOverhead                      = 0.06
	localityInflation               = 0.08
)

// Options configures one simulation run.
type Options struct {
	// Cfg is the machine description. Required.
	Cfg *apu.Config

	// Mem is the shared-memory contention model. Required.
	Mem *memsys.Model

	// PowerCap is the package power cap in watts; zero means uncapped.
	// By default the simulator never enforces the cap itself — that is
	// the job of schedules and governors — it only accounts violations.
	PowerCap units.Watts

	// HardCap enables RAPL-style hardware enforcement: whenever the
	// instantaneous package power would exceed PowerCap, frequencies
	// are clamped down immediately (within the event, i.e. at hardware
	// time scales), GPU-biased: the CPU is lowered first, like Intel's
	// RAPL balancing toward graphics. Software above may still pick
	// frequencies; the clamp is a backstop.
	HardCap bool

	// DomainCaps are optional RAPL-style per-plane limits under
	// PowerCap, PP0 on the CPU cores and PP1 on the iGPU. With HardCap
	// they are enforced within the event like the package clamp; either
	// way per-plane violations are counted in the Result and the
	// binding constraint reported.
	DomainCaps apu.DomainCaps

	// CPUSlots is how many jobs may time-share the CPU at once; zero
	// defaults to 1 (the co-scheduling policies of the paper never
	// multiprogram the CPU; the Default baseline does).
	CPUSlots int

	// InitCPUFreq and InitGPUFreq are the starting frequency levels;
	// the zero value means the maximum level. Use Pin to start at a
	// specific index.
	InitCPUFreq FreqSetting
	InitGPUFreq FreqSetting

	// Governor, if non-nil, may adjust frequencies at each governor
	// tick (reactive power capping, as the biased baselines do).
	Governor Governor

	// Start, if non-nil, is the heatsink the run starts with: the state
	// an earlier run's Result.End left, so a machine running one batch
	// after another heats as one machine. Nil starts cold (apu.Config's
	// Cold: at ambient, unthrottled). Starting frequencies above a
	// start ceiling begin at the ceiling.
	Start *apu.Heat

	// StopInstance, if non-nil, ends the simulation the moment this
	// instance completes (used for pairwise degradation measurement).
	StopInstance *workload.Instance

	// MaxTime aborts runaway simulations; zero defaults to 1e6 s.
	MaxTime units.Seconds
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.Cfg == nil {
		return out, fmt.Errorf("sim: Options.Cfg is required")
	}
	if err := out.Cfg.Validate(); err != nil {
		return out, err
	}
	if out.Mem == nil {
		return out, fmt.Errorf("sim: Options.Mem is required")
	}
	if out.CPUSlots <= 0 {
		out.CPUSlots = 1
	}
	if err := out.InitCPUFreq.validate(out.Cfg, apu.CPU); err != nil {
		return out, err
	}
	if err := out.InitGPUFreq.validate(out.Cfg, apu.GPU); err != nil {
		return out, err
	}
	if out.MaxTime <= 0 {
		out.MaxTime = 1e6
	}
	if h := out.Start; h != nil {
		if err := units.CheckFinite("Start.TempC", h.TempC); err != nil {
			return out, fmt.Errorf("sim: %w", err)
		}
		for d := apu.CPU; d <= apu.GPU; d++ {
			if h.Ceil[d] < 0 || h.Ceil[d] >= out.Cfg.NumFreqs(d) {
				return out, fmt.Errorf("sim: start %v ceiling %d out of range [0,%d)", d, h.Ceil[d], out.Cfg.NumFreqs(d))
			}
		}
	}
	return out, nil
}

// FreqSetting selects a starting DVFS level. The zero value selects the
// device's maximum level; Pin(i) selects index i.
type FreqSetting struct {
	pinned bool
	idx    int
}

// Pin returns a FreqSetting fixing the given frequency index.
func Pin(idx int) FreqSetting { return FreqSetting{pinned: true, idx: idx} }

// index resolves the setting against a device's frequency table.
func (f FreqSetting) index(cfg *apu.Config, d apu.Device) int {
	if !f.pinned {
		return cfg.MaxFreqIndex(d)
	}
	return f.idx
}

func (f FreqSetting) validate(cfg *apu.Config, d apu.Device) error {
	if f.pinned && (f.idx < 0 || f.idx >= cfg.NumFreqs(d)) {
		return fmt.Errorf("sim: pinned %v frequency index %d out of range [0,%d)", d, f.idx, cfg.NumFreqs(d))
	}
	return nil
}

// Dispatch is a dispatcher's instruction to start a job. Frequency
// directives below zero leave the current setting untouched.
type Dispatch struct {
	Inst    *workload.Instance
	CPUFreq int
	GPUFreq int
}

// View is the read-only simulator state exposed to dispatchers and
// governors. The pointer is valid only for the duration of the
// Next/Adjust call that received it — the simulator reuses the View
// between ticks, so implementations must copy anything they want to
// keep.
type View struct {
	// Running names the job on each device, nil when it idles; on a
	// multiprogrammed CPU, the first of its jobs in dispatch order.
	Running [apu.NumDevices]*workload.Instance
	CPUFreq int
	GPUFreq int

	// PP0 and PP1 are the instantaneous per-plane powers of the
	// segment that just ended (CPU cores + host thread, and iGPU).
	PP0 units.Watts
	PP1 units.Watts
}

// Dispatcher supplies jobs to idle device slots. Next returns nil when
// the device should stay idle for now; the simulation ends when nothing
// is running and both devices decline to dispatch.
type Dispatcher interface {
	Next(dev apu.Device, view *View) *Dispatch
}

// Governor reacts to measured power at each sample tick and returns the
// frequency indices to use next (possibly unchanged).
type Governor interface {
	Adjust(power units.Watts, view *View, cfg *apu.Config) (cpuFreq, gpuFreq int)
}

// Completion records one finished job.
type Completion struct {
	Inst  *workload.Instance
	Dev   apu.Device
	Start units.Seconds
	End   units.Seconds
}

// Duration is the job's wall time.
func (c Completion) Duration() units.Seconds { return c.End - c.Start }

// Result summarizes one simulation: the completions, the package power
// trace and run-wide summaries of energy, plane power, temperature and
// cap use. The per-sample operating points, plane powers and temperature
// are not kept; run's probe sees each of them at its sample tick.
type Result struct {
	// Makespan is the time from start to the last completion (or to
	// StopInstance's completion).
	Makespan units.Seconds

	// Completions lists finished jobs in completion order.
	Completions []Completion

	// Power is the interval-averaged package power trace, one sample per
	// sampleInterval of simulated time. Figure 9 plots it, the facade's
	// Report carries it, and MaxSample is its largest sample.
	Power *trace.Series

	// EnergyJ is total energy in joules.
	EnergyJ float64

	// AvgPower and MaxSample summarize the trace.
	AvgPower  units.Watts
	MaxSample units.Watts

	// CapViolations counts samples above the cap; MaxExcess is the
	// largest observed excess.
	CapViolations int
	MaxExcess     units.Watts

	// AvgPP0 and AvgPP1 are the run-wide per-plane averages (CPU cores
	// + host thread, and iGPU); AvgPower minus their sum is the constant
	// uncore/idle power.
	AvgPP0 units.Watts
	AvgPP1 units.Watts

	// MaxTempC is the hottest the heatsink node got; Throttles counts
	// the T_max ceiling clamps the thermal model applied.
	MaxTempC  float64
	Throttles int

	// End is the heatsink as the run left it: the next run's
	// Options.Start.
	End apu.Heat

	// DomainViolations counts samples where a configured plane cap was
	// exceeded (the per-domain analogue of CapViolations).
	DomainViolations int

	// Binding names the constraint that bound this run: thermal if the
	// throttle ever fired, otherwise the most heavily loaded of the
	// configured power caps, none when unconstrained.
	Binding apu.Constraint
}

// CompletionOf returns the completion record of the given instance, or
// nil if it never finished.
func (r *Result) CompletionOf(inst *workload.Instance) *Completion {
	for i := range r.Completions {
		if r.Completions[i].Inst == inst {
			return &r.Completions[i]
		}
	}
	return nil
}

// running tracks one in-flight job.
type running struct {
	inst      *workload.Instance
	dev       apu.Device
	phase     int
	remaining float64 // GOps left in the current phase
	start     units.Seconds

	// per-segment scratch
	rate      float64
	potential float64
}

// newRunning starts inst on dev now. The job is carved from the
// state's current chunk, so a run allocates per chunk rather than per
// dispatch; no slot is reused within a run, since the segment cache
// tells running jobs apart by pointer.
func (st *state) newRunning(inst *workload.Instance, dev apu.Device) *running {
	if len(st.runs) == cap(st.runs) {
		st.runs = make([]running, 0, len(st.runs0))
	}
	st.runs = append(st.runs, running{inst: inst, dev: dev, start: st.now})
	r := &st.runs[len(st.runs)-1]
	r.remaining = float64(inst.Prog.Work) * inst.Scale * inst.Prog.Phases[0].Frac
	return r
}

// advancePhase moves to the next phase; it returns false when the job
// has finished.
func (r *running) advancePhase() bool {
	r.phase++
	if r.phase >= len(r.inst.Prog.Phases) {
		return false
	}
	r.remaining = float64(r.inst.Prog.Work) * r.inst.Scale * r.inst.Prog.Phases[r.phase].Frac
	return true
}

// state is the mutable simulation state.
type state struct {
	opts Options
	now  units.Seconds

	// jobs is the machine's running set: the CPU's jobs in dispatch
	// order, then the GPU's job, if any. Each job's dev says which
	// device it is on.
	jobs    []*running
	cpuFreq int
	gpuFreq int

	// split is the per-plane breakdown of the current segment's power;
	// tempC the shared-heatsink temperature (thermal RC model).
	split apu.PowerSplit
	tempC float64

	// cpuCeil and gpuCeil are the effective frequency ceilings the
	// thermal throttle clamps down when tempC trips T_max; setFreqs
	// never exceeds them.
	cpuCeil int
	gpuCeil int

	// scratch backs the *View handed to dispatchers and governors.
	// view() is called every sample tick, so reusing one View keeps the
	// hot loop allocation-free; the View doc forbids callers from
	// retaining it.
	scratch View

	// seg is the last segment evaluated in full (see sameSegment).
	seg segment

	// runs is the chunk newRunning carves jobs from, len(runs0) at a
	// time. It and jobs and seg.jobs start on the arrays below, inside
	// the state: a pairwise measurement dispatches a few jobs, one per
	// device at a time, so it seldom allocates these.
	runs     []running
	runs0    [4]running
	jobs0    [apu.NumDevices]*running
	segJobs0 [apu.NumDevices]segmentJob
}

// gpuJob returns the GPU's job, nil when the GPU idles: the last of
// st.jobs, if that one is on the GPU.
func (st *state) gpuJob() *running {
	if n := len(st.jobs); n > 0 && st.jobs[n-1].dev == apu.GPU {
		return st.jobs[n-1]
	}
	return nil
}

// cpuJobs returns the CPU's jobs in dispatch order: st.jobs up to the
// GPU's job.
func (st *state) cpuJobs() []*running {
	if st.gpuJob() != nil {
		return st.jobs[:len(st.jobs)-1]
	}
	return st.jobs
}

// segment is what the rate and power models read of one segment, as the
// clamps left it — both frequency levels and each running job with its
// phase, in the order of st.jobs — and the package power they gave. The
// running jobs' rates and st.split still hold that evaluation's values,
// since nothing else writes them.
type segment struct {
	valid            bool
	cpuFreq, gpuFreq int
	jobs             []segmentJob
	power            units.Watts
}

// segmentJob is a running job and its phase.
type segmentJob struct {
	r     *running
	phase int
}

// sameSegment reports whether the running set, the phases and the
// frequency levels are those of st.seg: then computeRates, the power
// model and the clamps would return what they returned for it, since
// memsys.Model and the apu.Config power curves are stateless.
func (st *state) sameSegment() bool {
	s := &st.seg
	if !s.valid || s.cpuFreq != st.cpuFreq || s.gpuFreq != st.gpuFreq || len(s.jobs) != len(st.jobs) {
		return false
	}
	for i, r := range st.jobs {
		if s.jobs[i] != (segmentJob{r, r.phase}) {
			return false
		}
	}
	return true
}

// rememberSegment records the segment just evaluated in full at power.
func (st *state) rememberSegment(power units.Watts) {
	s := &st.seg
	s.valid = true
	s.cpuFreq, s.gpuFreq, s.power = st.cpuFreq, st.gpuFreq, power
	s.jobs = s.jobs[:0]
	for _, r := range st.jobs {
		s.jobs = append(s.jobs, segmentJob{r, r.phase})
	}
}

func (st *state) view() *View {
	v := &st.scratch
	v.CPUFreq, v.GPUFreq, v.PP0, v.PP1 = st.cpuFreq, st.gpuFreq, st.split.PP0, st.split.PP1
	v.Running = [apu.NumDevices]*workload.Instance{}
	for _, r := range st.jobs {
		if v.Running[r.dev] == nil {
			v.Running[r.dev] = r.inst
		}
	}
	return v
}

// sampleHint is the sample count of the last completed run: the
// capacity the next run's Power series starts with. The daemon and the
// evaluation harness simulate one similar epoch after another, so after
// the first the series rarely grow while the run samples. It sizes
// memory only — no sample depends on it. maxSampleHint caps what one
// long run makes every later run allocate.
var sampleHint atomic.Int64

const maxSampleHint = 1 << 12

// Run executes the simulation to completion and returns its Result.
func Run(opts Options, disp Dispatcher) (*Result, error) {
	return run(opts, disp, nil)
}

// probe watches one run from inside the event loop; run takes nil in
// production. sample, if set, is called at every sample tick after the
// tick's Power sample is taken, with the state as the tick left it and
// the interval's average PP0 and PP1 power. evaluations counts the
// segments the run evaluated in full (state.evaluate calls).
type probe struct {
	sample      func(st *state, avgPP0, avgPP1 float64)
	evaluations int
}

// run is Run with an optional probe.
func run(opts Options, disp Dispatcher, p *probe) (*Result, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if disp == nil {
		return nil, fmt.Errorf("sim: nil dispatcher")
	}

	heat := o.Cfg.Cold()
	if o.Start != nil {
		heat = *o.Start
	}
	st := &state{
		opts:    o,
		tempC:   heat.TempC,
		cpuCeil: heat.Ceil[apu.CPU],
		gpuCeil: heat.Ceil[apu.GPU],
	}
	st.cpuFreq = min(o.InitCPUFreq.index(o.Cfg, apu.CPU), st.cpuCeil)
	st.gpuFreq = min(o.InitGPUFreq.index(o.Cfg, apu.GPU), st.gpuCeil)
	st.runs, st.jobs, st.seg.jobs = st.runs0[:0], st.jobs0[:0], st.segJobs0[:0]
	n := int(sampleHint.Load())
	res := &Result{
		Power:    trace.NewSeriesCap("package_power", "w", n),
		MaxTempC: heat.TempC,
	}
	thermal := o.Cfg.Thermal
	decay, decayDt := 1.0, 0.0 // decay is thermal.Decay(decayDt)

	nextSample := sampleInterval
	nextGov := governorInterval
	intervalEnergy := 0.0
	intervalPP0E, intervalPP1E := 0.0, 0.0
	pp0E, pp1E := 0.0, 0.0
	intervalStart := units.Seconds(0)
	stopped := false

	const maxEvents = 50_000_000
	for ev := 0; ev < maxEvents; ev++ {
		// Fill idle slots.
		dispatched := st.fill(disp)
		if len(st.jobs) == 0 {
			if !dispatched {
				break // idle and nothing left to dispatch
			}
			continue
		}

		// The segment's rates, power and plane split: those of the last
		// segment while nothing they depend on has changed.
		power := st.seg.power
		if !st.sameSegment() {
			power = st.evaluate()
			if p != nil {
				p.evaluations++
			}
		}

		// Earliest event.
		dt := float64(nextSample - st.now)
		if o.Governor != nil {
			if d := float64(nextGov - st.now); d < dt {
				dt = d
			}
		}
		for _, r := range st.jobs {
			if d, err := r.eta(); err != nil {
				return nil, err
			} else if d < dt {
				dt = d
			}
		}
		if dt < 0 {
			dt = 0
		}
		if st.now+units.Seconds(dt) > o.MaxTime {
			return nil, fmt.Errorf("sim: exceeded MaxTime %v at t=%v", o.MaxTime, st.now)
		}

		// Integrate.
		st.now += units.Seconds(dt)
		e := float64(power) * dt
		res.EnergyJ += e
		intervalEnergy += e
		intervalPP0E += float64(st.split.PP0) * dt
		intervalPP1E += float64(st.split.PP1) * dt
		pp0E += float64(st.split.PP0) * dt
		pp1E += float64(st.split.PP1) * dt
		for _, r := range st.jobs {
			r.remaining -= r.rate * dt
		}

		// Thermal RC step over the segment, then the T_max throttle:
		// at or above the trip point the effective frequency ceilings
		// ratchet down one level (and the live frequencies are clamped
		// under them); once the node cools below TMaxC - HysteresisC
		// the ceilings step back toward the hardware maxima.
		if thermal.Enabled() {
			// Step, with the decay of the last dt kept: most segments
			// end on a governor tick, so one exponential serves a run.
			if dt > 0 {
				if dt != decayDt {
					decay, decayDt = thermal.Decay(units.Seconds(dt)), dt
				}
				st.tempC = thermal.Relax(st.tempC, power, decay)
			}
			if st.tempC > res.MaxTempC {
				res.MaxTempC = st.tempC
			}
			if st.tempC >= thermal.TMaxC-eps {
				if st.cpuCeil > 0 || st.gpuCeil > 0 {
					if st.cpuCeil > 0 {
						st.cpuCeil--
					}
					if st.gpuCeil > 0 {
						st.gpuCeil--
					}
					res.Throttles++
				}
				if st.cpuFreq > st.cpuCeil {
					st.cpuFreq = st.cpuCeil
				}
				if st.gpuFreq > st.gpuCeil {
					st.gpuFreq = st.gpuCeil
				}
			} else if st.tempC < thermal.TMaxC-thermal.HysteresisC {
				if st.cpuCeil < o.Cfg.MaxFreqIndex(apu.CPU) {
					st.cpuCeil++
				}
				if st.gpuCeil < o.Cfg.MaxFreqIndex(apu.GPU) {
					st.gpuCeil++
				}
			}
		}

		// Phase/job completions.
		if stopped = st.reap(res, o.StopInstance); stopped {
			break
		}

		// Governor tick: reacts to the instantaneous power of the
		// segment that just ended.
		if o.Governor != nil && st.now >= nextGov-units.Seconds(eps) {
			cf, gf := o.Governor.Adjust(power, st.view(), o.Cfg)
			st.setFreqs(cf, gf)
			nextGov += governorInterval
		}

		// Sample tick.
		if st.now >= nextSample-units.Seconds(eps) {
			span := float64(st.now - intervalStart)
			avg := float64(power)
			avgPP0, avgPP1 := float64(st.split.PP0), float64(st.split.PP1)
			if span > eps {
				avg = intervalEnergy / span
				avgPP0 = intervalPP0E / span
				avgPP1 = intervalPP1E / span
			}
			res.Power.MustAdd(st.now, avg)
			if p != nil && p.sample != nil {
				p.sample(st, avgPP0, avgPP1)
			}
			if o.PowerCap > 0 && units.Watts(avg) > o.PowerCap {
				res.CapViolations++
				if ex := units.Watts(avg) - o.PowerCap; ex > res.MaxExcess {
					res.MaxExcess = ex
				}
			}
			if o.DomainCaps.Any() && !o.DomainCaps.Allows(apu.PowerSplit{
				PP0: units.Watts(avgPP0), PP1: units.Watts(avgPP1), Uncore: o.Cfg.IdlePower,
			}) {
				res.DomainViolations++
			}
			intervalEnergy = 0
			intervalPP0E, intervalPP1E = 0, 0
			intervalStart = st.now
			nextSample += sampleInterval
		}
	}
	if !stopped {
		// Drain check: if jobs remain running we hit the event limit.
		if len(st.jobs) > 0 {
			return nil, fmt.Errorf("sim: event limit reached with jobs still running at t=%v", st.now)
		}
	}

	res.Makespan = st.now
	res.End = apu.Heat{TempC: st.tempC, Ceil: [apu.NumDevices]int{st.cpuCeil, st.gpuCeil}}
	if res.Makespan > 0 {
		res.AvgPower = units.Watts(res.EnergyJ / float64(res.Makespan))
		res.AvgPP0 = units.Watts(pp0E / float64(res.Makespan))
		res.AvgPP1 = units.Watts(pp1E / float64(res.Makespan))
	}
	res.MaxSample = units.Watts(res.Power.Max())
	sampleHint.Store(int64(min(res.Power.Len(), maxSampleHint)))

	// Which constraint bound the run: the thermal throttle if it ever
	// fired, else the most heavily loaded configured power cap.
	if res.Throttles > 0 {
		res.Binding = apu.ConstraintThermal
	} else {
		res.Binding, _ = o.DomainCaps.Binding(o.PowerCap, apu.PowerSplit{
			PP0:    res.AvgPP0,
			PP1:    res.AvgPP1,
			Uncore: units.Watts(float64(res.AvgPower) - float64(res.AvgPP0) - float64(res.AvgPP1)),
		})
	}
	return res, nil
}

// evaluate computes the segment's rates, package power and plane split,
// applies the hardware clamps, and remembers the settled segment when a
// fresh evaluation of it would change nothing: the domain clamp exits on
// the split it settled, and the package clamp is checked here because a
// domain step may leave the package over its cap.
func (st *state) evaluate() units.Watts {
	o := &st.opts
	cpuUtil, gpuUtil := st.computeRates()
	power := st.packagePower(cpuUtil, gpuUtil)

	// RAPL-style hardware clamp: throttle within the event until the
	// package fits the cap (or both devices hit their floors).
	pkgClamps := func() bool {
		return o.HardCap && o.PowerCap > 0 && power > o.PowerCap && (st.cpuFreq > 0 || st.gpuFreq > 0)
	}
	for pkgClamps() {
		if st.cpuFreq > 0 {
			st.cpuFreq--
		} else {
			st.gpuFreq--
		}
		cpuUtil, gpuUtil = st.computeRates()
		power = st.packagePower(cpuUtil, gpuUtil)
	}
	st.split = st.splitPower(cpuUtil, gpuUtil)

	// Per-plane hardware clamp: a plane cap meters one device, so the
	// clamp steps that device down.
	if o.HardCap && o.DomainCaps.Any() {
	domainClamp:
		for !o.DomainCaps.Allows(st.split) {
			switch {
			case o.DomainCaps.PP0 > 0 && st.split.PP0 > o.DomainCaps.PP0 && st.cpuFreq > 0:
				st.cpuFreq--
			case o.DomainCaps.PP1 > 0 && st.split.PP1 > o.DomainCaps.PP1 && st.gpuFreq > 0:
				st.gpuFreq--
			default:
				// Every offending plane is at its floor already.
				break domainClamp
			}
			cpuUtil, gpuUtil = st.computeRates()
			power = st.packagePower(cpuUtil, gpuUtil)
			st.split = st.splitPower(cpuUtil, gpuUtil)
		}
	}

	if pkgClamps() {
		st.seg.valid = false
	} else {
		st.rememberSegment(power)
	}
	return power
}

// fill offers free slots to the dispatcher; it reports whether any job
// was dispatched.
func (st *state) fill(disp Dispatcher) bool {
	dispatched := false
	if st.gpuJob() == nil {
		if d := disp.Next(apu.GPU, st.view()); d != nil {
			st.applyDispatch(d, apu.GPU)
			dispatched = true
		}
	}
	for len(st.cpuJobs()) < st.opts.CPUSlots {
		d := disp.Next(apu.CPU, st.view())
		if d == nil {
			break
		}
		st.applyDispatch(d, apu.CPU)
		dispatched = true
	}
	return dispatched
}

func (st *state) applyDispatch(d *Dispatch, dev apu.Device) {
	st.setFreqs(d.CPUFreq, d.GPUFreq)
	st.jobs = append(st.jobs, st.newRunning(d.Inst, dev))
	// A CPU job joins the CPU's, before the GPU's job.
	if n := len(st.jobs); dev == apu.CPU && n > 1 && st.jobs[n-2].dev == apu.GPU {
		st.jobs[n-2], st.jobs[n-1] = st.jobs[n-1], st.jobs[n-2]
	}
}

func (st *state) setFreqs(cf, gf int) {
	if cf >= 0 && cf < st.opts.Cfg.NumFreqs(apu.CPU) {
		if cf > st.cpuCeil {
			cf = st.cpuCeil // thermal throttle ceiling
		}
		st.cpuFreq = cf
	}
	if gf >= 0 && gf < st.opts.Cfg.NumFreqs(apu.GPU) {
		if gf > st.gpuCeil {
			gf = st.gpuCeil
		}
		st.gpuFreq = gf
	}
}

// computeRates fills each running job's per-segment rate and returns
// the device utilizations (-1 when a device is idle).
func (st *state) computeRates() (cpuUtil, gpuUtil float64) {
	cfg := st.opts.Cfg
	cpuUtil, gpuUtil = -1, -1

	cpuJobs, gpuJob := st.cpuJobs(), st.gpuJob()
	k := len(cpuJobs)
	cpuF := cfg.Freq(apu.CPU, st.cpuFreq)
	gpuF := cfg.Freq(apu.GPU, st.gpuFreq)

	// Per-job potentials and raw demands on the CPU.
	inflation := 1.0
	perJobScale := 1.0
	if k > 1 {
		perJobScale = math.Max(0.4, 1-csOverhead*float64(k-1))
		inflation = math.Min(1.5, 1+localityInflation*float64(k-1))
	}
	cpuDemand := 0.0
	cpuSensNum := 0.0
	for _, r := range cpuJobs {
		prog := r.inst.Prog
		r.potential = prog.PotentialRate(apu.CPU, cpuF) * perJobScale / math.Max(1, float64(k))
		d := r.potential * prog.Phases[r.phase].BytesPerOp * inflation
		cpuDemand += d
		cpuSensNum += d * prog.CPUSens
	}
	cpuSens := 0.0
	if cpuDemand > 0 {
		cpuSens = cpuSensNum / cpuDemand
	}

	gpuDemand, gpuSens := 0.0, 0.0
	if gpuJob != nil {
		prog := gpuJob.inst.Prog
		gpuJob.potential = prog.PotentialRate(apu.GPU, gpuF)
		gpuDemand = gpuJob.potential * prog.Phases[gpuJob.phase].BytesPerOp
		gpuSens = prog.GPUSens
	}

	grant := st.opts.Mem.Arbitrate(memsys.Demand{
		CPU: units.GBps(cpuDemand), GPU: units.GBps(gpuDemand),
		CPUSens: cpuSens, GPUSens: gpuSens,
	})

	// Split the CPU grant among CPU jobs proportionally to demand; the
	// locality inflation is pure waste, so only 1/inflation of the
	// granted bytes are useful.
	if k > 0 {
		sumPot, sumRate := 0.0, 0.0
		for _, r := range cpuJobs {
			bpo := r.inst.Prog.Phases[r.phase].BytesPerOp
			d := r.potential * bpo * inflation
			share := 0.0
			if cpuDemand > 0 {
				share = d / cpuDemand
			}
			useful := float64(grant.CPU) * share / inflation
			r.rate = kernelsim.RateGivenGrant(r.potential, bpo, units.GBps(useful))
			sumPot += r.potential
			sumRate += r.rate
		}
		if sumPot > 0 {
			cpuUtil = sumRate / sumPot
		}
	}
	if gpuJob != nil {
		bpo := gpuJob.inst.Prog.Phases[gpuJob.phase].BytesPerOp
		gpuJob.rate = kernelsim.RateGivenGrant(gpuJob.potential, bpo, grant.GPU)
		if gpuJob.potential > 0 {
			gpuUtil = gpuJob.rate / gpuJob.potential
		}
	}
	return cpuUtil, gpuUtil
}

func (st *state) packagePower(cpuUtil, gpuUtil float64) units.Watts {
	return st.opts.Cfg.PackagePower(st.cpuFreq, st.gpuFreq, cpuUtil, gpuUtil, st.gpuJob() != nil)
}

// splitPower is packagePower broken down by plane (same inputs, same
// arithmetic per term — the sum matches up to float association).
func (st *state) splitPower(cpuUtil, gpuUtil float64) apu.PowerSplit {
	return st.opts.Cfg.SplitPower(st.cpuFreq, st.gpuFreq, cpuUtil, gpuUtil, st.gpuJob() != nil)
}

// eta returns the time for the job to finish its current phase.
func (r *running) eta() (float64, error) {
	if r.remaining <= eps {
		return 0, nil
	}
	if r.rate <= 0 {
		return 0, fmt.Errorf("sim: job %s stalled with zero rate (phase %d)", r.inst.Label, r.phase)
	}
	return r.remaining / r.rate, nil
}

// reap advances the phases of the jobs that finished one and retires
// the jobs that finished their last, in the order of st.jobs, so the
// CPU's completions come first; it reports whether the stop instance
// completed. A stop on the CPU leaves the GPU's job as it was.
func (st *state) reap(res *Result, stop *workload.Instance) bool {
	out := st.jobs[:0]
	stopped := false
	for _, r := range st.jobs {
		if r.remaining > eps || stopped && r.dev == apu.GPU || r.advancePhase() {
			out = append(out, r)
			continue
		}
		res.Completions = append(res.Completions, Completion{
			Inst: r.inst, Dev: r.dev, Start: r.start, End: st.now,
		})
		stopped = stopped || stop != nil && r.inst == stop
	}
	st.jobs = out
	return stopped
}
