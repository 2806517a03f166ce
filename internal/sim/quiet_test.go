package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"corun/internal/apu"
	"corun/internal/units"
	"corun/internal/workload"
)

// drawDispatcher is a dispatcher in the manner of the Random baseline,
// which lives above this package: at a free device it draws one of the
// jobs left at random or, when the other device is busy, draws to idle
// until that device's job changes.
type drawDispatcher struct {
	rng  *rand.Rand
	left []*workload.Instance
	// waitFor is the co-runner each device decided to idle out.
	waitFor [apu.NumDevices]*workload.Instance
}

func (d *drawDispatcher) Next(dev apu.Device, v *View) *Dispatch {
	other := v.Running[dev.Other()]
	if len(d.left) == 0 || other != nil && other == d.waitFor[dev] {
		return nil
	}
	d.waitFor[dev] = nil
	options := len(d.left)
	if other != nil {
		options++
	}
	i := d.rng.Intn(options)
	if i == len(d.left) {
		d.waitFor[dev] = other
		return nil
	}
	inst := d.left[i]
	d.left = append(d.left[:i], d.left[i+1:]...)
	return &Dispatch{Inst: inst, CPUFreq: -1, GPUFreq: -1}
}

// quietScenario is one FuzzQuietTicks case: the options, a fresh
// dispatcher per call, and the heatsink the machine starts on.
type quietScenario struct {
	name string
	opts Options
	disp func() Dispatcher
	heat *apu.Heat // nil: cold
}

// newQuietScenario decodes a fuzz input. shape picks the caps (a package
// cap, each plane alone, none, a package cap over a plane cap) and the
// dispatcher (queues, draws, or a pairwise measurement's repeat); flags
// pick hardware enforcement, T_max 45 C (else the thermal model is off),
// three CPU slots, a stop instance, the CPU bias, no governor, a machine
// restored throttled to ceilings {2, 1} (at 46 C, above T_max; 43.5 C,
// between T_max and the release point; or 38 C, below it) and low
// starting levels.
func newQuietScenario(seed int64, shape, flags uint8) (quietScenario, error) {
	rng := rand.New(rand.NewSource(seed))
	batch, err := workload.Generate(workload.GenOptions{N: 3 + rng.Intn(6), Seed: seed})
	if err != nil {
		return quietScenario{}, err
	}
	pkg := units.Watts(11 + rng.Intn(8))
	caps := []struct {
		pkg     units.Watts
		domains apu.DomainCaps
	}{{pkg, apu.DomainCaps{}}, {0, apu.DomainCaps{PP0: 8}}, {0, apu.DomainCaps{PP1: 9}}, {}, {pkg, apu.DomainCaps{PP1: 7}}}
	c := caps[int(shape)%len(caps)]
	kind := int(shape) / len(caps) % 3
	bit := func(i uint) bool { return flags&(1<<i) != 0 }

	cfg := apu.DefaultConfig()
	tp := cfg.Thermal
	tp.TMaxC = 0
	if bit(1) {
		tp.TMaxC = 45
	}
	cfg = cfg.WithThermal(tp)
	opts := baseOpts()
	opts.Cfg = cfg
	opts.PowerCap, opts.DomainCaps, opts.HardCap = c.pkg, c.domains, bit(0)
	if bit(2) {
		opts.CPUSlots = 3
	}
	bias := GPUBiased
	if bit(4) {
		bias = CPUBiased
	}
	if !bit(5) {
		opts.Governor = &BiasedGovernor{Cap: c.pkg, Domains: c.domains, Bias: bias}
	}
	if bit(7) {
		opts.InitCPUFreq, opts.InitGPUFreq = Pin(1), Pin(0)
	}
	sc := quietScenario{name: fmt.Sprintf("seed=%d/shape=%d/flags=%#x", seed, shape, flags), opts: opts}
	if bit(6) {
		sc.heat = &apu.Heat{TempC: restoreTemps[rng.Intn(len(restoreTemps))], Ceil: [apu.NumDevices]int{2, 1}}
	}

	switch kind {
	case 0, 1:
		var cpuQ, gpuQ []*workload.Instance
		for _, in := range batch {
			if rng.Intn(2) == 0 {
				cpuQ = append(cpuQ, in)
			} else {
				gpuQ = append(gpuQ, in)
			}
		}
		if bit(3) {
			sc.opts.StopInstance = batch[rng.Intn(len(batch))]
		}
		drawSeed := rng.Int63()
		sc.disp = func() Dispatcher {
			if kind == 0 {
				return NewQueueDispatcher(cpuQ, gpuQ)
			}
			return &drawDispatcher{rng: rand.New(rand.NewSource(drawSeed)), left: append([]*workload.Instance(nil), batch...)}
		}
	case 2:
		// CoRunWithSolo's run: both levels pinned, no governor, the
		// target once, the co-runner relaunched until the target ends.
		target, co, dev := batch[0], batch[1], apu.Device(rng.Intn(2))
		if bit(3) {
			co = nil
		}
		sc.opts = pinned(sc.opts, rng.Intn(cfg.NumFreqs(apu.CPU)), rng.Intn(cfg.NumFreqs(apu.GPU)))
		sc.opts.StopInstance = target
		sc.disp = func() Dispatcher { return newRepeatDispatcher(target, dev, co) }
	}
	return sc, nil
}

// restoreTemps are the temperatures a scenario's machine may be restored
// to, throttled: above T_max 45 C, between it and the release point
// (45 - 3 C), and below the release point.
var restoreTemps = []float64{46, 43.5, 38}

// counted stands between a run and its dispatcher and governor, and
// counts the Next and Adjust calls the event loop makes.
type counted struct {
	d              Dispatcher
	g              Governor
	nexts, adjusts int
}

func (c *counted) Next(dev apu.Device, v *View) *Dispatch {
	c.nexts++
	return c.d.Next(dev, v)
}

func (c *counted) Adjust(power units.Watts, v *View, cfg *apu.Config) (int, int) {
	c.adjusts++
	return c.g.Adjust(power, v, cfg)
}

// count returns opts and disp with their calls counted by c.
func count(opts Options, disp Dispatcher) (Options, *counted) {
	c := &counted{d: disp, g: opts.Governor}
	if opts.Governor != nil {
		opts.Governor = c
	}
	return opts, c
}

// quietRun is one run of a scenario under a fresh probe, asking at every
// tick or not.
type quietRun struct {
	res  *traced
	err  error
	heat apu.Heat
	p    *probe
	c    *counted
}

func (sc quietScenario) run(everyTick bool) quietRun {
	m := NewMachine(sc.opts.Cfg)
	if sc.heat != nil {
		m.Restore(0, *sc.heat)
	}
	p := &probe{everyTick: everyTick}
	opts, c := count(sc.opts, sc.disp())
	res, err := traceRun(m, opts, c, p)
	return quietRun{res: res, err: err, heat: m.Heat(), p: p, c: c}
}

// checkQuiet holds the run that skips what a quiet tick may skip to the
// run that asks at every tick: the same error, or every Result field and
// every per-sample clock, plane power and temperature bit for bit, the
// same heatsink left behind and the same segments evaluated in full;
// and never more dispatcher or governor calls. It returns the first run.
func checkQuiet(t *testing.T, sc quietScenario) quietRun {
	t.Helper()
	got, want := sc.run(false), sc.run(true)
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Fatalf("%s: error %v, asking at every tick %v", sc.name, got.err, want.err)
	}
	if want.err != nil {
		return got
	}
	if g, w := digestResult(got.res), digestResult(want.res); g != w {
		t.Errorf("%s: result digest %s, asking at every tick %s (makespan %v vs %v, %d vs %d throttles)",
			sc.name, g, w, got.res.Makespan, want.res.Makespan, got.res.Throttles, want.res.Throttles)
	}
	if got.heat != want.heat {
		t.Errorf("%s: leaves the heatsink at %+v, asking at every tick at %+v", sc.name, got.heat, want.heat)
	}
	if got.p.evaluations != want.p.evaluations {
		t.Errorf("%s: %d segments evaluated in full, asking at every tick %d", sc.name, got.p.evaluations, want.p.evaluations)
	}
	if got.c.nexts > want.c.nexts || got.c.adjusts > want.c.adjusts {
		t.Errorf("%s: %d Next and %d Adjust calls, asking at every tick only %d and %d",
			sc.name, got.c.nexts, got.c.adjusts, want.c.nexts, want.c.adjusts)
	}
	return got
}

// FuzzQuietTicks holds the event loop, which skips at a quiet tick every
// call whose answer provably stands, to the same loop asking at every
// tick, over seeded batches, every cap shape, hardware enforcement,
// T_max off and 45 C, one and three CPU slots, a stop instance, both
// biases, no governor, queued, drawn and repeated dispatch, and a
// machine restored hot and throttled.
func FuzzQuietTicks(f *testing.F) {
	for seed := int64(1); seed <= 2; seed++ {
		for shape := uint8(0); shape < 15; shape++ {
			for _, flags := range []uint8{0x00, 0x03, 0x0e, 0x16, 0x42, 0x61, 0x9b} {
				f.Add(seed, shape, flags)
			}
		}
	}
	// A throttle at a governor tick whose Adjust moves nothing: the next
	// segment's power is a new input, so the next tick must ask again.
	f.Add(int64(110), uint8(95), uint8(0x1b))
	f.Fuzz(func(t *testing.T, seed int64, shape, flags uint8) {
		sc, err := newQuietScenario(seed, shape, flags)
		if err != nil {
			t.Skip(err)
		}
		checkQuiet(t, sc)
	})
}

// A machine restored throttled, ceilings {2, 1}, at each restore
// temperature, every cap shape and dispatcher: the quiet run releases
// its ceilings as the run asking at every tick does, also when no tick
// of the run throttles it (below the release point, the first tick
// releases a level).
func TestQuietTicksFromAThrottledRestore(t *testing.T) {
	released := false
	for _, temp := range restoreTemps {
		for shape := uint8(0); shape < 15; shape++ {
			sc, err := newQuietScenario(3, shape, 0x42)
			if err != nil {
				t.Fatal(err)
			}
			sc.heat.TempC = temp
			sc.name += fmt.Sprintf("/%vC", temp)
			got := checkQuiet(t, sc)
			cfg := sc.opts.Cfg
			released = released || got.err == nil && got.res.CPUFreq.Max() > float64(cfg.Freq(apu.CPU, sc.heat.Ceil[apu.CPU]))
		}
	}
	if !released {
		t.Error("no run raised the CPU above its restored ceiling")
	}
}

// steadyCheck wraps a dispatcher and, after each decline, asks it again
// for the same device with the view's levels and plane powers moved —
// to the lowest levels and no power, and to the highest levels and more
// power than measured: a dispatcher declines steadily if those asks
// decline too and leave state (a snapshot of what Next may change) as it
// was.
type steadyCheck struct {
	t        *testing.T
	name     string
	d        Dispatcher
	state    func() any
	declines int
}

func (s *steadyCheck) Next(dev apu.Device, v *View) *Dispatch {
	if got := s.d.Next(dev, v); got != nil {
		return got
	}
	s.declines++
	before := s.state()
	cfg := apu.DefaultConfig()
	for _, moved := range []View{
		{Running: v.Running},
		{Running: v.Running, CPUFreq: cfg.MaxFreqIndex(apu.CPU), GPUFreq: cfg.MaxFreqIndex(apu.GPU), PP0: v.PP0 + 10, PP1: v.PP1 + 10},
	} {
		if again := s.d.Next(dev, &moved); again != nil {
			s.t.Errorf("%s: declined %v, then dispatched %s with the same jobs running", s.name, dev, again.Inst.Label)
		}
	}
	if after := s.state(); !reflect.DeepEqual(before, after) {
		s.t.Errorf("%s: asking %v again after a decline changed its state: %+v -> %+v", s.name, dev, before, after)
	}
	return nil
}

// The simulator asks a dispatcher again only after a job starts or
// finishes, so every Dispatcher in this package must decline steadily
// (see Dispatcher). The runs ask at every tick, so the dispatchers see
// every view a run passes through.
func TestDispatchersDeclineSteadily(t *testing.T) {
	declines := map[string]int{}
	for _, sc := range goldenScenarios() {
		opts, cpuQ, gpuQ := goldenSetup(sc)
		q := NewQueueDispatcher(cpuQ, gpuQ)
		check := &steadyCheck{t: t, name: "QueueDispatcher/" + sc.name, d: q, state: func() any { return q.queues }}
		if _, err := traceRun(NewMachine(opts.Cfg), opts, check, &probe{everyTick: true}); err != nil {
			t.Fatal(err)
		}
		declines["QueueDispatcher"] += check.declines
	}
	batch := workload.Batch8()
	for _, co := range []*workload.Instance{batch[1], nil} {
		for dev := apu.CPU; dev <= apu.GPU; dev++ {
			opts := pinned(baseOpts(), 3, 2)
			opts.StopInstance = batch[0]
			r := newRepeatDispatcher(batch[0], dev, co)
			check := &steadyCheck{t: t, name: fmt.Sprintf("repeatDispatcher/%v/co=%v", dev, co != nil), d: r,
				state: func() any { return [2]any{r.started, r.d} }}
			if _, err := traceRun(NewMachine(opts.Cfg), opts, check, &probe{everyTick: true}); err != nil {
				t.Fatal(err)
			}
			declines["repeatDispatcher"] += check.declines
		}
	}
	for _, name := range []string{"QueueDispatcher", "repeatDispatcher"} {
		if declines[name] == 0 {
			t.Errorf("%s never declined", name)
		}
	}
}

// pureCheck wraps a governor and asks, beside each Adjust, the same
// governor again and a fresh copy of it: a pure governor gives all three
// the same answer and is left as it was.
type pureCheck struct {
	t    *testing.T
	name string
	g    *BiasedGovernor
	asks int
}

func (c *pureCheck) Adjust(power units.Watts, v *View, cfg *apu.Config) (int, int) {
	c.asks++
	before, fresh := *c.g, *c.g
	cf, gf := c.g.Adjust(power, v, cfg)
	cf2, gf2 := c.g.Adjust(power, v, cfg)
	cf3, gf3 := fresh.Adjust(power, v, cfg)
	if cf2 != cf || gf2 != gf || cf3 != cf || gf3 != gf {
		c.t.Errorf("%s: Adjust(%v, %+v) = %d,%d, asked again %d,%d, a fresh copy %d,%d", c.name, power, *v, cf, gf, cf2, gf2, cf3, gf3)
	}
	if *c.g != before {
		c.t.Errorf("%s: Adjust changed the governor: %+v -> %+v", c.name, before, *c.g)
	}
	return cf, gf
}

// The simulator skips a governor tick whose inputs are unchanged since a
// tick that moved no level, so every Governor in this package must be
// pure (see Governor): BiasedGovernor, both biases, under every cap
// shape, asked at every tick.
func TestGovernorsArePure(t *testing.T) {
	for _, sc := range goldenScenarios() {
		for _, bias := range []Bias{GPUBiased, CPUBiased} {
			opts, cpuQ, gpuQ := goldenSetup(sc)
			c := &pureCheck{t: t, name: fmt.Sprintf("%v/%s", bias, sc.name), g: &BiasedGovernor{Cap: sc.pkgCap, Domains: sc.domains, Bias: bias}}
			opts.Governor = c
			if _, err := traceRun(NewMachine(opts.Cfg), opts, NewQueueDispatcher(cpuQ, gpuQ), &probe{everyTick: true}); err != nil {
				t.Fatal(err)
			}
			if c.asks == 0 {
				t.Errorf("%s: never asked", c.name)
			}
		}
	}
}

// lateOffer breaks the Dispatcher contract the way work arriving at a
// running machine would: it declines the CPU until its asks-th CPU ask,
// then offers a job though nothing started or finished.
type lateOffer struct {
	*QueueDispatcher
	job     *workload.Instance
	asks    int
	offered units.Seconds
	now     func() units.Seconds
}

func (l *lateOffer) Next(dev apu.Device, v *View) *Dispatch {
	if dev != apu.CPU || l.job == nil {
		return l.QueueDispatcher.Next(dev, v)
	}
	if l.asks--; l.asks > 0 {
		return nil
	}
	d := &Dispatch{Inst: l.job, CPUFreq: -1, GPUFreq: -1}
	l.job, l.offered = nil, l.now()
	return d
}

// A quiet machine asks its dispatcher nothing between a start or finish
// and the next: work that arrives while the machine runs — an Enqueue
// onto a running machine — is seen only at the next start or finish
// unless whatever adds it clears the machine's quiet state. Asking at
// every tick starts the late job a few ticks after the GPU's job starts;
// the quiet machine starts it when the GPU's job finishes.
func TestQuietMachineAsksOnlyAtEvents(t *testing.T) {
	batch := workload.Batch8()
	gpuJob, late := batch[0], batch[1]
	for _, everyTick := range []bool{true, false} {
		opts := baseOpts()
		m := NewMachine(opts.Cfg)
		l := &lateOffer{QueueDispatcher: NewQueueDispatcher(nil, []*workload.Instance{gpuJob}), job: late, asks: 3, now: func() units.Seconds { return m.now }}
		opts.Governor = &BiasedGovernor{Cap: 15, Bias: GPUBiased}
		res, err := m.run(opts, l, &probe{everyTick: everyTick})
		if err != nil {
			t.Fatal(err)
		}
		gpuEnd := res.CompletionOf(gpuJob).End
		switch {
		case l.job != nil:
			t.Fatalf("everyTick=%v: the late job was never offered", everyTick)
		case everyTick && !(l.offered < gpuEnd):
			t.Errorf("asking at every tick, the late job started at %v, not before the GPU's job ended at %v", l.offered, gpuEnd)
		case !everyTick && l.offered != gpuEnd:
			t.Errorf("the quiet machine asked between events: the late job started at %v, the GPU's job ended at %v", l.offered, gpuEnd)
		}
	}
}
