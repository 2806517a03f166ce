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

	// InitFreq holds each device's starting frequency level; the zero
	// value means the maximum level. Use Pin to start at a specific
	// index.
	InitFreq [apu.NumDevices]FreqSetting

	// Governor, if non-nil, may adjust frequencies at each governor
	// tick (reactive power capping, as the biased baselines do).
	Governor Governor

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
	for d, f := range out.InitFreq {
		if err := f.validate(out.Cfg, apu.Device(d)); err != nil {
			return out, err
		}
	}
	if out.MaxTime <= 0 {
		out.MaxTime = 1e6
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

// Dispatch is a dispatcher's instruction to start a job. Freq holds a
// frequency directive per device; one outside the device's levels, such
// as -1, leaves its current setting untouched.
type Dispatch struct {
	Inst *workload.Instance
	Freq [apu.NumDevices]int
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
	// Freq holds each device's frequency level.
	Freq [apu.NumDevices]int
	// Plane holds, per device, the instantaneous power of the plane
	// that meters it in the segment that just ended: PP0 (CPU cores +
	// host thread) for the CPU, PP1 (iGPU) for the GPU.
	Plane [apu.NumDevices]units.Watts
}

// Dispatcher supplies jobs to idle device slots. Next returns nil when
// the device should stay idle for now; the simulation ends when nothing
// is running and both devices decline to dispatch.
//
// A Dispatcher declines steadily: once it declines a device, it
// declines that device again, and changes no state in doing so, until a
// job starts or finishes. Its answer may depend on View.Running but not
// on the frequencies or plane powers. The simulator relies on this: it
// asks again only after a start or a finish, not at every tick.
type Dispatcher interface {
	Next(dev apu.Device, view *View) *Dispatch
}

// Governor reacts to measured power at each sample tick and returns each
// device's frequency index to use next (possibly unchanged).
//
// A Governor is pure: Adjust's answer is a function of its arguments —
// the power, the View and cfg — and it may memoize. The simulator
// relies on this: while none of those inputs and no throttle ceiling
// has changed since a tick that moved no level, it does not call Adjust
// again.
type Governor interface {
	Adjust(power units.Watts, view *View, cfg *apu.Config) [apu.NumDevices]int
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
// machine's current chunk, so a run allocates per chunk rather than per
// dispatch; no slot is reused within a run, since the segment cache
// tells running jobs apart by pointer.
func (m *Machine) newRunning(inst *workload.Instance, dev apu.Device) *running {
	if len(m.runs) == cap(m.runs) {
		m.runs = make([]running, 0, len(m.runs0))
	}
	m.runs = append(m.runs, running{inst: inst, dev: dev, start: m.now})
	r := &m.runs[len(m.runs)-1]
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

// Machine is one simulated APU kept from run to run. Its clock and its
// heatsink — the temperature and each device's throttle ceiling — carry
// over, so a machine running one batch after another heats as one
// machine; the rest is a run's scratch, reset when a run starts. Clock
// may be read from any goroutine, everything else only from the one
// that runs, idles or restores the machine.
type Machine struct {
	clock atomic.Uint64 // units.Seconds bits

	// heat is the shared heatsink (thermal RC model) and the effective
	// frequency ceilings the thermal throttle clamps down when its
	// temperature trips T_max; setFreqs never exceeds them.
	heat apu.Heat

	// opts is the last run's options; opts.Cfg is the machine's
	// description from NewMachine on.
	opts Options
	now  units.Seconds

	// jobs is the machine's running set: the CPU's jobs in dispatch
	// order, then the GPU's job, if any. Each job's dev says which
	// device it is on.
	jobs []*running
	freq [apu.NumDevices]int

	// plane is the current segment's power of the plane that meters
	// each device (View.Plane).
	plane [apu.NumDevices]units.Watts

	// scratch backs the *View handed to dispatchers and governors.
	// view() is called every sample tick, so reusing one View keeps the
	// hot loop allocation-free; the View doc forbids callers from
	// retaining it.
	scratch View

	// seg is the last segment evaluated in full (see sameSegment).
	seg segment

	// quiet says which of a tick's calls would return what they last
	// returned, so the tick skips them.
	quiet quiet

	// runs is the chunk newRunning carves jobs from, len(runs0) at a
	// time. It and jobs and seg.jobs start each run on the arrays
	// below, inside the machine: a pairwise measurement dispatches a
	// few jobs, one per device at a time, so it seldom allocates these.
	runs     []running
	runs0    [4]running
	jobs0    [apu.NumDevices]*running
	segJobs0 [apu.NumDevices]segmentJob
}

// NewMachine returns cfg's machine idle and cold (apu.Config's Cold: at
// ambient, unthrottled) at time 0. A nil cfg gives a machine no run
// accepts, since Options.Cfg is required.
func NewMachine(cfg *apu.Config) *Machine {
	m := &Machine{opts: Options{Cfg: cfg}}
	if cfg != nil {
		m.heat = cfg.Cold()
	}
	return m
}

// Clock returns the machine's clock, in simulated seconds: the sum of
// its runs' makespans and its idle waits.
func (m *Machine) Clock() units.Seconds {
	return units.Seconds(math.Float64frombits(m.clock.Load()))
}

func (m *Machine) setClock(t units.Seconds) { m.clock.Store(math.Float64bits(float64(t))) }

// Heat returns the heatsink as the last run, wait or restore left it.
func (m *Machine) Heat() apu.Heat { return m.heat }

// Idle moves the clock forward to t if t is later: the machine waited
// for work. The heatsink spends the wait at the idle power, and the
// throttle's ceilings are released once the wait has cooled the node
// below the release point, TMaxC - HysteresisC.
func (m *Machine) Idle(t units.Seconds) {
	now := m.Clock()
	if t <= now {
		return
	}
	cfg := m.opts.Cfg
	if tp := cfg.Thermal; tp.Enabled() {
		m.heat.TempC = tp.Step(m.heat.TempC, cfg.IdlePower, t-now)
		if m.heat.TempC < tp.TMaxC-tp.HysteresisC {
			m.heat.Ceil = cfg.Cold().Ceil
		}
	}
	m.setClock(t)
}

// Restore puts the machine at clock with the heatsink heat, each
// ceiling held to the machine's levels (a journal may have been written
// on another preset).
func (m *Machine) Restore(clock units.Seconds, heat apu.Heat) {
	for d := range heat.Ceil {
		heat.Ceil[d] = min(max(heat.Ceil[d], 0), m.opts.Cfg.MaxFreqIndex(apu.Device(d)))
	}
	m.heat = heat
	m.setClock(clock)
}

// gpuJob returns the GPU's job, nil when the GPU idles: the last of
// m.jobs, if that one is on the GPU.
func (m *Machine) gpuJob() *running {
	if n := len(m.jobs); n > 0 && m.jobs[n-1].dev == apu.GPU {
		return m.jobs[n-1]
	}
	return nil
}

// cpuJobs returns the CPU's jobs in dispatch order: m.jobs up to the
// GPU's job.
func (m *Machine) cpuJobs() []*running {
	if m.gpuJob() != nil {
		return m.jobs[:len(m.jobs)-1]
	}
	return m.jobs
}

// segment is what the rate and power models read of one segment, as the
// clamps left it — both frequency levels and each running job with its
// phase, in the order of m.jobs — and the package power they gave. The
// running jobs' rates and m.plane still hold that evaluation's values,
// since nothing else writes them.
type segment struct {
	valid bool
	freq  [apu.NumDevices]int
	jobs  []segmentJob
	power units.Watts
}

// quiet holds, for each call an event-loop tick may skip, whether its
// last answer provably still stands. Every write to the running set, a
// phase or a frequency level clears seg and gov; a finish also clears
// disp, and a new segment or a moved throttle ceiling clears gov.
type quiet struct {
	// disp: fill dispatched nothing and no job has started or finished
	// since, so the dispatcher would decline every free slot again.
	disp bool
	// seg: no job, phase or level has changed since the segment check,
	// so m.seg still describes the segment.
	seg bool
	// gov: the governor's last tick moved no level and none of its
	// inputs — the segment's power and plane powers, the levels, the
	// ceilings, the running set — has changed since.
	gov bool
}

// changed clears the quiet state a change of the running set, a phase or
// a frequency level invalidates.
func (m *Machine) changed() { m.quiet.seg, m.quiet.gov = false, false }

// segmentJob is a running job and its phase.
type segmentJob struct {
	r     *running
	phase int
}

// sameSegment reports whether the running set, the phases and the
// frequency levels are those of m.seg: then computeRates, the power
// model and the clamps would return what they returned for it, since
// memsys.Model and the apu.Config power curves are stateless.
func (m *Machine) sameSegment() bool {
	s := &m.seg
	if !s.valid || s.freq != m.freq || len(s.jobs) != len(m.jobs) {
		return false
	}
	for i, r := range m.jobs {
		if s.jobs[i] != (segmentJob{r, r.phase}) {
			return false
		}
	}
	return true
}

// rememberSegment records the segment just evaluated in full at power.
func (m *Machine) rememberSegment(power units.Watts) {
	s := &m.seg
	s.valid = true
	s.freq, s.power = m.freq, power
	s.jobs = s.jobs[:0]
	for _, r := range m.jobs {
		s.jobs = append(s.jobs, segmentJob{r, r.phase})
	}
}

func (m *Machine) view() *View {
	v := &m.scratch
	v.Freq, v.Plane = m.freq, m.plane
	v.Running = [apu.NumDevices]*workload.Instance{}
	for _, r := range m.jobs {
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

// Run runs a fresh machine (NewMachine) to drain: one run, cold at
// time 0.
func Run(opts Options, disp Dispatcher) (*Result, error) {
	return NewMachine(opts.Cfg).Run(opts, disp)
}

// Run runs disp's jobs to drain from the heatsink the machine's last
// run, wait or restore left; opts.Cfg must be the machine's. The
// Result's times are relative to the run's start. The machine keeps the
// heatsink the run ended on, and its clock moves on by the makespan. An
// error changes neither.
func (m *Machine) Run(opts Options, disp Dispatcher) (*Result, error) {
	start := m.heat
	res, err := m.run(opts, disp, nil)
	if err != nil {
		m.heat = start
		return nil, err
	}
	m.setClock(m.Clock() + res.Makespan)
	return res, nil
}

// probe watches one run from inside the event loop; run takes nil in
// production. sample, if set, is called at every sample tick after the
// tick's Power sample is taken, with the machine as the tick left it and
// the interval's average PP0 and PP1 power. evaluations counts the
// segments the run evaluated in full (Machine.evaluate calls).
// everyTick makes the run skip nothing a quiet tick may skip: it asks
// the dispatcher, checks the segment, ticks the governor, walks the
// ceiling release and reaps at every tick — the reference the skips are
// held to.
type probe struct {
	sample      func(m *Machine, avgPP0, avgPP1 float64)
	evaluations int
	everyTick   bool
}

// run is one run's event loop, with an optional probe: Run without the
// clock, and without the heatsink put back on an error.
func (m *Machine) run(opts Options, disp Dispatcher, p *probe) (*Result, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if o.Cfg != m.opts.Cfg {
		return nil, fmt.Errorf("sim: Options.Cfg is not the machine's")
	}
	if disp == nil {
		return nil, fmt.Errorf("sim: nil dispatcher")
	}
	ref := p != nil && p.everyTick

	// The run's scratch starts as a fresh machine's; the frequencies
	// start under the heatsink's ceilings.
	m.opts, m.now, m.plane = o, 0, [apu.NumDevices]units.Watts{}
	for d, f := range o.InitFreq {
		m.freq[d] = min(f.index(o.Cfg, apu.Device(d)), m.heat.Ceil[d])
	}
	m.runs, m.jobs, m.seg = m.runs0[:0], m.jobs0[:0], segment{jobs: m.segJobs0[:0]}
	m.quiet = quiet{}
	n := int(sampleHint.Load())
	res := &Result{
		Power:    trace.NewSeriesCap("package_power", "w", n),
		MaxTempC: m.heat.TempC,
	}
	thermal := o.Cfg.Thermal
	decay, decayDt := 1.0, 0.0 // decay is thermal.Decay(decayDt)
	// low: some throttle ceiling is below its maximum, so a cool tick has
	// one to release. A restored or idled machine may start throttled.
	low := m.heat.Ceil != o.Cfg.Cold().Ceil

	nextSample := sampleInterval
	nextGov := governorInterval
	intervalEnergy := 0.0
	var intervalPlaneE, planeE [apu.NumDevices]float64
	intervalStart := units.Seconds(0)
	stopped := false

	const maxEvents = 50_000_000
	for ev := 0; ev < maxEvents; ev++ {
		if ref {
			m.quiet, low = quiet{}, true
		}

		// Fill idle slots.
		dispatched := m.fill(disp)
		if len(m.jobs) == 0 {
			if !dispatched {
				break // idle and nothing left to dispatch
			}
			continue
		}

		// The segment's rates, power and plane powers: those of the last
		// segment while nothing they depend on has changed, checked only
		// once something has.
		power := m.seg.power
		if !m.quiet.seg {
			if !m.sameSegment() {
				power = m.evaluate()
				if p != nil {
					p.evaluations++
				}
			}
			m.quiet.seg = m.seg.valid
		}

		// Earliest event.
		dt := float64(nextSample - m.now)
		if o.Governor != nil {
			if d := float64(nextGov - m.now); d < dt {
				dt = d
			}
		}
		for _, r := range m.jobs {
			if d, err := r.eta(); err != nil {
				return nil, err
			} else if d < dt {
				dt = d
			}
		}
		if dt < 0 {
			dt = 0
		}
		if m.now+units.Seconds(dt) > o.MaxTime {
			return nil, fmt.Errorf("sim: exceeded MaxTime %v at t=%v", o.MaxTime, m.now)
		}

		// Integrate.
		m.now += units.Seconds(dt)
		e := float64(power) * dt
		res.EnergyJ += e
		intervalEnergy += e
		for d, w := range m.plane {
			intervalPlaneE[d] += float64(w) * dt
			planeE[d] += float64(w) * dt
		}
		due := ref // some job has finished its phase
		for _, r := range m.jobs {
			r.remaining -= r.rate * dt
			due = due || !(r.remaining > eps)
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
				m.heat.TempC = thermal.Relax(m.heat.TempC, power, decay)
			}
			res.MaxTempC = max(res.MaxTempC, m.heat.TempC)
			if m.heat.TempC >= thermal.TMaxC-eps {
				throttled := false
				for d, c := range m.heat.Ceil {
					if c > 0 {
						m.heat.Ceil[d]--
						throttled = true
					}
					m.freq[d] = min(m.freq[d], m.heat.Ceil[d])
				}
				if throttled {
					res.Throttles++
					low = true
					m.changed()
				}
			} else if low && m.heat.TempC < thermal.TMaxC-thermal.HysteresisC {
				low = false
				for d, c := range m.heat.Ceil {
					top := o.Cfg.MaxFreqIndex(apu.Device(d))
					m.heat.Ceil[d] = min(c+1, top)
					low = low || m.heat.Ceil[d] < top
				}
				m.quiet.gov = false
			}
		}

		// Phase/job completions.
		if due {
			if stopped = m.reap(res, o.StopInstance); stopped {
				break
			}
		}

		// Governor tick: reacts to the instantaneous power of the
		// segment that just ended, unless it would answer as it did at
		// its last tick, which moved no level.
		if o.Governor != nil && m.now >= nextGov-units.Seconds(eps) {
			if !m.quiet.gov {
				lv := o.Governor.Adjust(power, m.view(), o.Cfg)
				m.quiet.gov = true
				m.setFreqs(lv)
			}
			nextGov += governorInterval
		}

		// Sample tick.
		if m.now >= nextSample-units.Seconds(eps) {
			span := float64(m.now - intervalStart)
			avg, avgPlane := float64(power), m.plane
			if span > eps {
				avg = intervalEnergy / span
				for d, e := range intervalPlaneE {
					avgPlane[d] = units.Watts(e / span)
				}
			}
			res.Power.MustAdd(m.now, avg)
			if p != nil && p.sample != nil {
				p.sample(m, float64(avgPlane[apu.CPU]), float64(avgPlane[apu.GPU]))
			}
			if o.PowerCap > 0 && units.Watts(avg) > o.PowerCap {
				res.CapViolations++
				if ex := units.Watts(avg) - o.PowerCap; ex > res.MaxExcess {
					res.MaxExcess = ex
				}
			}
			if o.DomainCaps.Any() && !o.DomainCaps.Allows(apu.PowerSplit{
				PP0: avgPlane[apu.CPU], PP1: avgPlane[apu.GPU], Uncore: o.Cfg.IdlePower,
			}) {
				res.DomainViolations++
			}
			intervalEnergy, intervalPlaneE = 0, [apu.NumDevices]float64{}
			intervalStart = m.now
			nextSample += sampleInterval
		}
	}
	if !stopped {
		// Drain check: if jobs remain running we hit the event limit.
		if len(m.jobs) > 0 {
			return nil, fmt.Errorf("sim: event limit reached with jobs still running at t=%v", m.now)
		}
	}

	res.Makespan = m.now
	if res.Makespan > 0 {
		res.AvgPower = units.Watts(res.EnergyJ / float64(res.Makespan))
		res.AvgPP0 = units.Watts(planeE[apu.CPU] / float64(res.Makespan))
		res.AvgPP1 = units.Watts(planeE[apu.GPU] / float64(res.Makespan))
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

// evaluate computes the segment's rates, package power and plane powers,
// applies the hardware clamps, and remembers the settled segment when a
// fresh evaluation of it would change nothing: the domain clamp exits on
// the plane powers it settled, and the package clamp is checked here
// because a domain step may leave the package over its cap.
func (m *Machine) evaluate() units.Watts {
	o := &m.opts
	cpuUtil, gpuUtil := m.computeRates()
	power := m.packagePower(cpuUtil, gpuUtil)

	// RAPL-style hardware clamp: throttle within the event until the
	// package fits the cap (or both devices hit their floors), in the
	// GPU-biased order (Options.HardCap).
	pkgOver := func() bool { return o.HardCap && o.PowerCap > 0 && power > o.PowerCap }
	for _, d := range GPUBiased.order() {
		for pkgOver() && m.freq[d] > 0 {
			m.freq[d]--
			cpuUtil, gpuUtil = m.computeRates()
			power = m.packagePower(cpuUtil, gpuUtil)
		}
	}
	m.plane = m.planePower(cpuUtil, gpuUtil)

	// Per-plane hardware clamp: a plane cap meters one device, so the
	// clamp steps that device down, the first over its cap in the same
	// order, and looks again, since a step moves the other plane too.
	if o.HardCap && o.DomainCaps.Any() {
	clamp:
		for {
			for _, d := range GPUBiased.order() {
				if o.DomainCaps.Over(d, m.plane[d]) && m.freq[d] > 0 {
					m.freq[d]--
					cpuUtil, gpuUtil = m.computeRates()
					power = m.packagePower(cpuUtil, gpuUtil)
					m.plane = m.planePower(cpuUtil, gpuUtil)
					continue clamp
				}
			}
			break // no plane is over its cap, or each one over is at its floor
		}
	}

	if pkgOver() && m.freq != [apu.NumDevices]int{} {
		m.seg.valid = false
	} else {
		m.rememberSegment(power)
	}
	m.quiet.gov = false // the governor sees a new segment
	return power
}

// fill offers free slots to the dispatcher; it reports whether any job
// was dispatched. While the dispatcher declined every free slot and no
// job has started or finished since, it would decline again: fill asks
// nothing.
func (m *Machine) fill(disp Dispatcher) bool {
	if m.quiet.disp {
		return false
	}
	dispatched := false
	if m.gpuJob() == nil {
		if d := disp.Next(apu.GPU, m.view()); d != nil {
			m.applyDispatch(d, apu.GPU)
			dispatched = true
		}
	}
	for len(m.cpuJobs()) < m.opts.CPUSlots {
		d := disp.Next(apu.CPU, m.view())
		if d == nil {
			break
		}
		m.applyDispatch(d, apu.CPU)
		dispatched = true
	}
	m.quiet.disp = !dispatched
	return dispatched
}

func (m *Machine) applyDispatch(d *Dispatch, dev apu.Device) {
	m.setFreqs(d.Freq)
	m.changed()
	m.jobs = append(m.jobs, m.newRunning(d.Inst, dev))
	// A CPU job joins the CPU's, before the GPU's job.
	if n := len(m.jobs); dev == apu.CPU && n > 1 && m.jobs[n-2].dev == apu.GPU {
		m.jobs[n-2], m.jobs[n-1] = m.jobs[n-1], m.jobs[n-2]
	}
}

// setFreqs applies frequency directives, each held under its device's
// throttle ceiling; a directive outside the device's levels leaves its
// setting untouched.
func (m *Machine) setFreqs(lv [apu.NumDevices]int) {
	f := m.freq
	for d, l := range lv {
		if l >= 0 && l < m.opts.Cfg.NumFreqs(apu.Device(d)) {
			f[d] = min(l, m.heat.Ceil[d])
		}
	}
	if f != m.freq {
		m.freq = f
		m.changed()
	}
}

// computeRates fills each running job's per-segment rate and returns
// the device utilizations (-1 when a device is idle).
func (m *Machine) computeRates() (cpuUtil, gpuUtil float64) {
	cfg := m.opts.Cfg
	cpuUtil, gpuUtil = -1, -1

	cpuJobs, gpuJob := m.cpuJobs(), m.gpuJob()
	k := len(cpuJobs)
	cpuF := cfg.Freq(apu.CPU, m.freq[apu.CPU])
	gpuF := cfg.Freq(apu.GPU, m.freq[apu.GPU])

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

	grant := m.opts.Mem.Arbitrate(memsys.Demand{
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

func (m *Machine) packagePower(cpuUtil, gpuUtil float64) units.Watts {
	return m.opts.Cfg.PackagePower(m.freq[apu.CPU], m.freq[apu.GPU], cpuUtil, gpuUtil, m.gpuJob() != nil)
}

// planePower is packagePower's share of the plane that meters each
// device (same inputs, same arithmetic per term — with the uncore, the
// sum matches up to float association).
func (m *Machine) planePower(cpuUtil, gpuUtil float64) [apu.NumDevices]units.Watts {
	s := m.opts.Cfg.SplitPower(m.freq[apu.CPU], m.freq[apu.GPU], cpuUtil, gpuUtil, m.gpuJob() != nil)
	return [apu.NumDevices]units.Watts{s.PP0, s.PP1}
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
// the jobs that finished their last, in the order of m.jobs, so the
// CPU's completions come first; it reports whether the stop instance
// completed. A stop on the CPU leaves the GPU's job as it was. run calls
// it only once some job has finished its phase.
func (m *Machine) reap(res *Result, stop *workload.Instance) bool {
	m.changed()
	out := m.jobs[:0]
	stopped := false
	for _, r := range m.jobs {
		if r.remaining > eps || stopped && r.dev == apu.GPU || r.advancePhase() {
			out = append(out, r)
			continue
		}
		res.Completions = append(res.Completions, Completion{
			Inst: r.inst, Dev: r.dev, Start: r.start, End: m.now,
		})
		stopped = stopped || stop != nil && r.inst == stop
	}
	if len(out) < len(m.jobs) {
		m.quiet.disp = false // a job finished
	}
	m.jobs = out
	return stopped
}
