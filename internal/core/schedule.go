package core

import (
	"fmt"
	"math"
	"strconv"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// Schedule is a planned co-schedule: one dispatch order per device plus
// the set of jobs that must run exclusively (leaving the other device
// idle). Frequencies are not stored — they are a pure function of the
// co-running pair via Context.ChoosePairFreqs, both in planning and in
// execution, exactly as the runtime re-evaluates DVFS at each dispatch.
type Schedule struct {
	// CPUOrder and GPUOrder hold job indices in dispatch order.
	CPUOrder []int
	GPUOrder []int

	// Exclusive marks jobs that run with the other device idle (the
	// S_seq set of step 1).
	Exclusive map[int]bool
}

// order returns device d's dispatch order.
func (s *Schedule) order(d apu.Device) *[]int {
	if d == apu.CPU {
		return &s.CPUOrder
	}
	return &s.GPUOrder
}

// place appends job j to device d's dispatch order.
func (s *Schedule) place(d apu.Device, j int) {
	q := s.order(d)
	*q = append(*q, j)
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	out := &Schedule{
		CPUOrder:  append([]int(nil), s.CPUOrder...),
		GPUOrder:  append([]int(nil), s.GPUOrder...),
		Exclusive: make(map[int]bool, len(s.Exclusive)),
	}
	for k, v := range s.Exclusive {
		out.Exclusive[k] = v
	}
	return out
}

// Jobs returns every job index in the schedule.
func (s *Schedule) Jobs() []int {
	out := append([]int(nil), s.CPUOrder...)
	return append(out, s.GPUOrder...)
}

// Validate checks that the schedule covers each of n jobs exactly once.
func (s *Schedule) Validate(n int) error {
	seen := make([]bool, n)
	for _, j := range s.Jobs() {
		if j < 0 || j >= n {
			return fmt.Errorf("core: schedule references job %d outside [0,%d)", j, n)
		}
		if seen[j] {
			return fmt.Errorf("core: schedule lists job %d twice", j)
		}
		seen[j] = true
	}
	for j, ok := range seen {
		if !ok {
			return fmt.Errorf("core: schedule misses job %d", j)
		}
	}
	return nil
}

// mayStart is the exclusivity rule of planning and execution alike: an
// exclusive job waits for the other device to drain (other = its job,
// -1 when idle), and nothing starts beside a running exclusive job.
func (s *Schedule) mayStart(job, other int) bool {
	return other < 0 || !(s.Exclusive[job] || s.Exclusive[other])
}

// String renders the schedule compactly.
func (s *Schedule) String() string {
	mark := func(j int) string {
		if s.Exclusive[j] {
			return fmt.Sprintf("%d!", j)
		}
		return fmt.Sprintf("%d", j)
	}
	cpu := make([]string, len(s.CPUOrder))
	for i, j := range s.CPUOrder {
		cpu[i] = mark(j)
	}
	gpu := make([]string, len(s.GPUOrder))
	for i, j := range s.GPUOrder {
		gpu[i] = mark(j)
	}
	return fmt.Sprintf("CPU:%v GPU:%v", cpu, gpu)
}

// appendMemoKey appends the schedule's planning-relevant content —
// both dispatch orders with per-job exclusivity marks — to b: the
// predicted-makespan memo key.
func (s *Schedule) appendMemoKey(b []byte) []byte {
	appendQ := func(q []int) {
		for _, j := range q {
			b = strconv.AppendInt(b, int64(j), 10)
			if s.Exclusive[j] {
				b = append(b, '!')
			}
			b = append(b, ',')
		}
	}
	appendQ(s.CPUOrder)
	b = append(b, '|')
	appendQ(s.GPUOrder)
	return b
}

// PredictedMakespan evaluates the schedule on predicted data (see
// walk). It is the objective function of the HCS+ refinement and of the
// search policies, which revisit candidate schedules, so successful
// evaluations are memoized (bounded; see maxMakespanMemo).
func (cx *Context) PredictedMakespan(s *Schedule) (units.Seconds, error) {
	if err := s.Validate(cx.Oracle.NumJobs()); err != nil {
		return 0, err
	}
	return cx.predictedMakespan(s)
}

// predictedMakespan is PredictedMakespan of a schedule already known
// to place every job exactly once.
func (cx *Context) predictedMakespan(s *Schedule) (units.Seconds, error) {
	var buf [128]byte // the key of a 16-job batch stays on the stack
	key := s.appendMemoKey(buf[:0])
	cx.mu.Lock()
	t, ok := cx.msMemo[string(key)]
	cx.mu.Unlock()
	if ok {
		return t, nil
	}
	t, err := cx.walk(s, nil)
	if err != nil {
		return 0, err
	}
	cx.mu.Lock()
	if len(cx.msMemo) < maxMakespanMemo {
		cx.msMemo[string(key)] = t
	}
	cx.mu.Unlock()
	return t, nil
}

// timeline is the predicted machine: the job each device runs (-1 =
// idle), the fraction of it still to do, the clock, and the jobs the
// last advance completed (-1 = none). Predicted time moves only here —
// walk (PredictedMakespan, ExplainPlan) and HCS step 3 both start jobs
// on one and advance it — and it stays a plain value on the caller's
// stack.
type timeline struct {
	job   [apu.NumDevices]int
	frac  [apu.NumDevices]float64
	done  [apu.NumDevices]int
	now   float64
	steps int
}

// maxTimelineSteps bounds the advances of one timeline. Each completes
// a job, so only a walk whose rates are not numbers reaches it.
const maxTimelineSteps = 1 << 20

func newTimeline() timeline {
	return timeline{job: [apu.NumDevices]int{-1, -1}, done: [apu.NumDevices]int{-1, -1}}
}

func (tl *timeline) idle() bool { return tl.job[apu.CPU] < 0 && tl.job[apu.GPU] < 0 }

// start dispatches job on the idle device dev.
func (tl *timeline) start(dev apu.Device, job int) {
	tl.job[dev], tl.frac[dev] = job, 1
}

// advance moves the clock to the earliest completion among the running
// jobs (at least one): the pair's frequencies by ChoosePairFreqs, each
// job's rate from its standalone time there and its predicted
// degradation, the side-note partial-overlap arithmetic for the
// survivor.
func (tl *timeline) advance(cx *Context) error {
	tl.done = [apu.NumDevices]int{-1, -1}
	if tl.steps++; tl.steps > maxTimelineSteps {
		return fmt.Errorf("core: predicted timeline exceeded step limit")
	}
	fp, dc, dg, ok := cx.ChoosePairFreqs(tl.job[apu.CPU], tl.job[apu.GPU])
	if !ok {
		return fmt.Errorf("core: no cap-feasible frequencies for pair (%d,%d)", tl.job[apu.CPU], tl.job[apu.GPU])
	}
	freq := [apu.NumDevices]int{fp.CPU, fp.GPU}
	deg := [apu.NumDevices]float64{dc, dg}
	var rate [apu.NumDevices]float64 // fraction of the job per second
	dt := math.Inf(1)
	for d := apu.CPU; d <= apu.GPU; d++ {
		if tl.job[d] < 0 {
			continue
		}
		rate[d] = 1 / (float64(cx.soloTimes(tl.job[d], d)[freq[d]]) * (1 + deg[d]))
		if left := tl.frac[d] / rate[d]; left < dt {
			dt = left
		}
	}
	tl.now += dt
	for d := apu.CPU; d <= apu.GPU; d++ {
		if tl.job[d] < 0 {
			continue
		}
		tl.frac[d] -= rate[d] * dt
		if tl.frac[d] <= 1e-12 {
			tl.done[d], tl.job[d] = tl.job[d], -1
		}
	}
	return nil
}

// timelineEvent is what a timeline visitor sees: job started on dev at
// time now beside other (-1 = idle) or, with done set, completed there.
type timelineEvent struct {
	now   float64
	dev   apu.Device
	job   int
	other int
	done  bool
}

// visitDone shows visit, when not nil, what advance just completed.
func (tl *timeline) visitDone(visit func(timelineEvent) error) error {
	if visit == nil {
		return nil
	}
	for d := apu.CPU; d <= apu.GPU; d++ {
		if tl.done[d] < 0 {
			continue
		}
		if err := visit(timelineEvent{now: tl.now, dev: d, job: tl.done[d], other: tl.job[d.Other()], done: true}); err != nil {
			return err
		}
	}
	return nil
}

// walk plays a schedule that places every job exactly once on a
// timeline as the executor dispatches it — CPU queue first, mayStart
// before every start — and returns the predicted makespan. visit, when
// not nil, sees every start and completion in time order.
func (cx *Context) walk(s *Schedule, visit func(timelineEvent) error) (units.Seconds, error) {
	queues := [apu.NumDevices][]int{s.CPUOrder, s.GPUOrder}
	tl := newTimeline()
	for {
		for d := apu.CPU; d <= apu.GPU; d++ {
			q, other := queues[d], tl.job[d.Other()]
			if tl.job[d] >= 0 || len(q) == 0 || !s.mayStart(q[0], other) {
				continue
			}
			tl.start(d, q[0])
			queues[d] = q[1:]
			if visit != nil {
				if err := visit(timelineEvent{now: tl.now, dev: d, job: q[0], other: other}); err != nil {
					return 0, err
				}
			}
		}
		if tl.idle() {
			if len(queues[apu.CPU]) == 0 && len(queues[apu.GPU]) == 0 {
				return units.Seconds(tl.now), nil
			}
			return 0, fmt.Errorf("core: schedule deadlocked with %d CPU / %d GPU jobs pending", len(queues[apu.CPU]), len(queues[apu.GPU]))
		}
		if err := tl.advance(cx); err != nil {
			return 0, err
		}
		if err := tl.visitDone(visit); err != nil {
			return 0, err
		}
	}
}

// scheduleDispatcher executes a Schedule on the real simulator with the
// same rules as the predicted evaluator.
type scheduleDispatcher struct {
	cx    *Context
	s     *Schedule
	batch []*workload.Instance

	// queues holds each device's jobs not dispatched yet: the tails of
	// the schedule's orders, which the dispatcher never writes.
	queues [apu.NumDevices][]int
}

func newScheduleDispatcher(cx *Context, s *Schedule, batch []*workload.Instance) *scheduleDispatcher {
	return &scheduleDispatcher{cx: cx, s: s, batch: batch, queues: [apu.NumDevices][]int{s.CPUOrder, s.GPUOrder}}
}

// jobID is the batch index of a running job, -1 for an idle device.
func jobID(inst *workload.Instance) int {
	if inst == nil {
		return -1
	}
	return inst.ID
}

// Next implements sim.Dispatcher.
func (d *scheduleDispatcher) Next(dev apu.Device, view *sim.View) *sim.Dispatch {
	q := d.queues[dev]
	if len(q) == 0 {
		return nil
	}
	head, other := q[0], jobID(view.Running[dev.Other()])
	if !d.s.mayStart(head, other) {
		return nil // wait for the other device to drain
	}
	fp, _, _, ok := d.cx.ChoosePairFreqs(asPair(dev, head, other))
	if !ok {
		// No feasible setting: fall back to the floor frequencies and
		// let the cap-violation accounting surface the problem.
		fp = apu.FreqPair{}
	}
	d.queues[dev] = q[1:]
	return &sim.Dispatch{Inst: d.batch[head], CPUFreq: fp.CPU, GPUFreq: fp.GPU}
}

// planGovernor re-applies the planned frequency choice to whatever pair
// is actually running. Dispatch directives already set pair frequencies
// at job starts; the governor covers the remaining transitions — most
// importantly a device draining its queue, after which the survivor
// must be re-upgraded to its best solo operating point instead of
// crawling at the stale co-run setting.
//
// The governor ticks far more often than the running pair changes, and
// within one context the choice is a function of the pair alone, so it
// keeps the last pair it asked about (CPU job, GPU job; both -1 before
// the first) and that pair's answer.
type planGovernor struct {
	cx   *Context
	pair [apu.NumDevices]int
	fp   apu.FreqPair
	ok   bool
}

// Adjust implements sim.Governor.
func (g *planGovernor) Adjust(power units.Watts, view *sim.View, cfg *apu.Config) (int, int) {
	pair := [apu.NumDevices]int{jobID(view.Running[apu.CPU]), jobID(view.Running[apu.GPU])}
	if pair[apu.CPU] < 0 && pair[apu.GPU] < 0 {
		return view.CPUFreq, view.GPUFreq
	}
	if pair != g.pair {
		g.pair = pair
		g.fp, _, _, g.ok = g.cx.ChoosePairFreqs(pair[apu.CPU], pair[apu.GPU])
	}
	if !g.ok {
		return view.CPUFreq, view.GPUFreq
	}
	return g.fp.CPU, g.fp.GPU
}

// ExecOptions configures schedule execution on the simulator.
type ExecOptions struct {
	Cfg *apu.Config
	Mem *memsys.Model
	// Cap is the package power cap enforced/reported during execution.
	Cap units.Watts
	// Domains are optional per-plane caps enforced/reported alongside
	// Cap (see Context.Domains).
	Domains apu.DomainCaps
	// Machine, if not nil, is the machine the run executes on: it starts
	// on the heatsink the machine's last run left and carries the run's
	// on (sim.Machine.Run). Nil runs on a fresh, cold machine.
	Machine *sim.Machine
}

// simulate runs disp under simOpts with the executor's machine, memory
// model and caps filled in, on opts.Machine if set and on a fresh
// machine otherwise.
func (opts ExecOptions) simulate(simOpts sim.Options, disp sim.Dispatcher) (*sim.Result, error) {
	simOpts.Cfg, simOpts.Mem, simOpts.PowerCap, simOpts.DomainCaps = opts.Cfg, opts.Mem, opts.Cap, opts.Domains
	if opts.Machine == nil {
		return sim.Run(simOpts, disp)
	}
	return opts.Machine.Run(simOpts, disp)
}

// biasedGovernor is the baselines' reactive cap enforcement, the
// paper's comparison setting: a governor of the given bias under the
// executor's caps, none when nothing is capped.
func (opts ExecOptions) biasedGovernor(bias sim.Bias) sim.Governor {
	if opts.Cap > 0 || opts.Domains.Any() {
		return &sim.BiasedGovernor{Cap: opts.Cap, Domains: opts.Domains, Bias: bias}
	}
	return nil
}

// Execute runs the schedule on the ground-truth simulator. Instance IDs
// in the batch must equal their indices (as produced by the workload
// package).
func (cx *Context) Execute(s *Schedule, batch []*workload.Instance, opts ExecOptions) (*sim.Result, error) {
	if err := s.Validate(len(batch)); err != nil {
		return nil, err
	}
	for i, in := range batch {
		if in.ID != i {
			return nil, fmt.Errorf("core: batch instance %d has ID %d; IDs must equal indices", i, in.ID)
		}
	}
	return opts.simulate(sim.Options{
		Governor: &planGovernor{cx: cx, pair: [apu.NumDevices]int{-1, -1}},
		// The planned schedule controls frequencies; start from the
		// floor so the first dispatch's directive decides.
		InitCPUFreq: sim.Pin(0),
		InitGPUFreq: sim.Pin(0),
	}, newScheduleDispatcher(cx, s, batch))
}
