package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"corun/internal/apu"
	"corun/internal/kernelsim"
	"corun/internal/memsys"
	"corun/internal/units"
	"corun/internal/workload"
)

func baseOpts() Options {
	return Options{
		Cfg: apu.DefaultConfig(),
		Mem: memsys.Default(),
	}
}

func inst(name string) *workload.Instance {
	return &workload.Instance{ID: 0, Prog: workload.MustByName(name), Scale: 1, Label: name}
}

// A standalone simulated run must match the analytic standalone time
// from kernelsim: the event loop integrates the same rates.
func TestStandaloneMatchesAnalytic(t *testing.T) {
	opts := baseOpts()
	for _, name := range []string{"streamcluster", "dwt2d", "lud"} {
		for _, dev := range []apu.Device{apu.CPU, apu.GPU} {
			in := inst(name)
			res, err := StandaloneRun(opts, in, dev)
			if err != nil {
				t.Fatalf("%s on %v: %v", name, dev, err)
			}
			f := opts.Cfg.Freq(dev, opts.Cfg.MaxFreqIndex(dev))
			want := in.Prog.StandaloneTime(dev, f, opts.Mem, 1)
			if units.RelErr(float64(res.Makespan), float64(want)) > 1e-6 {
				t.Errorf("%s on %v: sim %.4f vs analytic %.4f", name, dev, res.Makespan, want)
			}
			if len(res.Completions) != 1 || res.Completions[0].Dev != dev {
				t.Errorf("%s on %v: bad completions %+v", name, dev, res.Completions)
			}
		}
	}
}

// Lower frequency means longer standalone time.
func TestStandaloneFreqScaling(t *testing.T) {
	opts := baseOpts()
	in := inst("hotspot")
	fast, err := StandaloneRun(opts, in, apu.GPU)
	if err != nil {
		t.Fatal(err)
	}
	slowOpts := opts
	slowOpts.InitFreq[apu.GPU] = Pin(0)
	slow, err := StandaloneRun(slowOpts, inst("hotspot"), apu.GPU)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Makespan <= fast.Makespan {
		t.Errorf("GPU at 0.35 GHz (%v) should be slower than at 1.25 GHz (%v)", slow.Makespan, fast.Makespan)
	}
}

// Section III anecdote: dwt2d on CPU suffers heavily beside
// streamcluster on GPU (paper: 81%) but only mildly beside hotspot
// (paper: 17%); the GPU co-runners barely notice.
func TestSectionIIIAnecdotes(t *testing.T) {
	opts := baseOpts()
	cmax := opts.Cfg.MaxFreqIndex(apu.CPU)
	gmax := opts.Cfg.MaxFreqIndex(apu.GPU)

	heavy, err := CoRun(opts, inst("dwt2d"), apu.CPU, inst("streamcluster"), cmax, gmax)
	if err != nil {
		t.Fatal(err)
	}
	if heavy.Degradation < 0.55 || heavy.Degradation > 1.15 {
		t.Errorf("dwt2d beside streamcluster degrades %.2f, want around 0.81", heavy.Degradation)
	}

	mild, err := CoRun(opts, inst("dwt2d"), apu.CPU, inst("hotspot"), cmax, gmax)
	if err != nil {
		t.Fatal(err)
	}
	if mild.Degradation < 0.05 || mild.Degradation > 0.35 {
		t.Errorf("dwt2d beside hotspot degrades %.2f, want around 0.17", mild.Degradation)
	}
	if mild.Degradation >= heavy.Degradation {
		t.Errorf("hotspot pairing (%.2f) should hurt less than streamcluster pairing (%.2f)",
			mild.Degradation, heavy.Degradation)
	}

	// The GPU-side view: streamcluster co-running with dwt2d.
	gpuSide, err := CoRun(opts, inst("streamcluster"), apu.GPU, inst("dwt2d"), cmax, gmax)
	if err != nil {
		t.Fatal(err)
	}
	if gpuSide.Degradation > 0.15 {
		t.Errorf("streamcluster beside dwt2d degrades %.2f, want small (paper: 0.05)", gpuSide.Degradation)
	}
}

// Degradations are non-negative for every workload pairing at max
// frequency.
func TestCoRunDegradationsNonNegative(t *testing.T) {
	opts := baseOpts()
	cmax := opts.Cfg.MaxFreqIndex(apu.CPU)
	gmax := opts.Cfg.MaxFreqIndex(apu.GPU)
	names := workload.Names()
	for _, a := range names[:4] {
		for _, b := range names[4:] {
			r, err := CoRun(opts, inst(a), apu.CPU, inst(b), cmax, gmax)
			if err != nil {
				t.Fatalf("%s/%s: %v", a, b, err)
			}
			if r.Degradation < -1e-6 {
				t.Errorf("%s beside %s has negative degradation %.4f", a, b, r.Degradation)
			}
		}
	}
}

func TestQueueDispatcherOrdering(t *testing.T) {
	opts := baseOpts()
	a, b := inst("lud"), inst("hotspot")
	b.ID = 1
	d := NewQueueDispatcher([]*workload.Instance{a, b}, nil)
	res, err := Run(opts, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completions) != 2 {
		t.Fatalf("completions = %d, want 2", len(res.Completions))
	}
	if res.Completions[0].Inst != a || res.Completions[1].Inst != b {
		t.Error("queue order not respected")
	}
	if res.Completions[1].Start < res.Completions[0].End-1e-9 {
		t.Error("second job started before first finished on a 1-slot CPU")
	}
}

// Makespan equals the last completion time and completions are in
// chronological order.
func TestMakespanAndCompletionOrder(t *testing.T) {
	opts := baseOpts()
	cpu := []*workload.Instance{inst("dwt2d"), inst("lud")}
	gpu := []*workload.Instance{inst("streamcluster"), inst("hotspot"), inst("srad")}
	for i, in := range append(append([]*workload.Instance{}, cpu...), gpu...) {
		in.ID = i
	}
	res, err := Run(opts, NewQueueDispatcher(cpu, gpu))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completions) != 5 {
		t.Fatalf("completions = %d, want 5", len(res.Completions))
	}
	last := units.Seconds(0)
	for _, c := range res.Completions {
		if c.End < last {
			t.Error("completions out of order")
		}
		last = c.End
		if c.Duration() <= 0 {
			t.Errorf("%s has non-positive duration", c.Inst.Label)
		}
	}
	if math.Abs(float64(res.Makespan-last)) > 1e-9 {
		t.Errorf("makespan %v != last completion %v", res.Makespan, last)
	}
}

// Co-running two complementary jobs beats running them sequentially
// (the whole premise of co-scheduling).
func TestCoRunBeatsSequentialForComplementaryJobs(t *testing.T) {
	opts := baseOpts()
	d1, h1 := inst("dwt2d"), inst("hotspot")
	h1.ID = 1
	co, err := Run(opts, NewQueueDispatcher([]*workload.Instance{d1}, []*workload.Instance{h1}))
	if err != nil {
		t.Fatal(err)
	}
	d2, h2 := inst("dwt2d"), inst("hotspot")
	h2.ID = 1
	seqA, err := StandaloneRun(opts, d2, apu.CPU)
	if err != nil {
		t.Fatal(err)
	}
	seqB, err := StandaloneRun(opts, h2, apu.GPU)
	if err != nil {
		t.Fatal(err)
	}
	if co.Makespan >= seqA.Makespan+seqB.Makespan {
		t.Errorf("co-run makespan %v should beat sequential %v",
			co.Makespan, seqA.Makespan+seqB.Makespan)
	}
}

// Multiprogramming the CPU (Default-baseline behaviour) is slower than
// running the same jobs back to back.
func TestMultiprogrammedCPUSlower(t *testing.T) {
	opts := baseOpts()
	mk := func() []*workload.Instance {
		a, b, c := inst("dwt2d"), inst("lud"), inst("cfd")
		b.ID, c.ID = 1, 2
		return []*workload.Instance{a, b, c}
	}
	seqRes, err := Run(opts, NewQueueDispatcher(mk(), nil))
	if err != nil {
		t.Fatal(err)
	}
	mpOpts := opts
	mpOpts.CPUSlots = 3
	mpRes, err := Run(mpOpts, NewQueueDispatcher(mk(), nil))
	if err != nil {
		t.Fatal(err)
	}
	if mpRes.Makespan <= seqRes.Makespan {
		t.Errorf("multiprogrammed makespan %v should exceed sequential %v",
			mpRes.Makespan, seqRes.Makespan)
	}
}

func TestPowerTraceAndEnergy(t *testing.T) {
	opts := baseOpts()
	res, err := StandaloneRun(opts, inst("hotspot"), apu.GPU)
	if err != nil {
		t.Fatal(err)
	}
	if res.Power.Len() < 10 {
		t.Fatalf("power trace has %d samples for a ~28 s run", res.Power.Len())
	}
	if res.AvgPower <= opts.Cfg.IdlePower {
		t.Errorf("average power %v should exceed idle %v", res.AvgPower, opts.Cfg.IdlePower)
	}
	if res.MaxSample < res.AvgPower {
		t.Errorf("max sample %v below average %v", res.MaxSample, res.AvgPower)
	}
	wantEnergy := float64(res.AvgPower) * float64(res.Makespan)
	if units.RelErr(res.EnergyJ, wantEnergy) > 1e-9 {
		t.Errorf("energy %v inconsistent with avg power x makespan %v", res.EnergyJ, wantEnergy)
	}
}

// Running both devices at max frequency blows through a 15 W cap and
// the simulator records the violations.
func TestCapViolationAccounting(t *testing.T) {
	opts := baseOpts()
	opts.PowerCap = 15
	a, b := inst("dwt2d"), inst("streamcluster")
	b.ID = 1
	res, err := Run(opts, NewQueueDispatcher([]*workload.Instance{a}, []*workload.Instance{b}))
	if err != nil {
		t.Fatal(err)
	}
	if res.CapViolations == 0 {
		t.Error("max-frequency co-run under a 15 W cap should violate it")
	}
	if res.MaxExcess <= 0 {
		t.Error("MaxExcess should be positive")
	}
}

// The GPU-biased governor brings power under the cap by lowering the
// CPU frequency first, keeping the GPU fast.
func TestGPUBiasedGovernorEnforcesCap(t *testing.T) {
	opts := baseOpts()
	opts.PowerCap = 15
	opts.Governor = &BiasedGovernor{Cap: 15, Bias: GPUBiased}
	a, b := inst("dwt2d"), inst("streamcluster")
	b.ID = 1
	res, err := Run(opts, NewQueueDispatcher([]*workload.Instance{a}, []*workload.Instance{b}))
	if err != nil {
		t.Fatal(err)
	}
	// After settling, the bulk of samples must respect the cap; the
	// paper tolerates brief excursions of < 2 W.
	n, _ := res.Power.CountAbove(15 + 0.5)
	if frac := float64(n) / float64(res.Power.Len()); frac > 0.3 {
		t.Errorf("governor left %.0f%% of samples >0.5 W above the cap", frac*100)
	}
	if res.MaxExcess > 6 {
		t.Errorf("max excess %v too large for a reactive governor", res.MaxExcess)
	}
}

// CPU-biased and GPU-biased governors sacrifice different devices:
// under the same workload the GPU-biased run keeps higher GPU clocks
// and so finishes GPU-heavy work faster.
func TestBiasDifference(t *testing.T) {
	run := func(bias Bias) units.Seconds {
		opts := baseOpts()
		opts.PowerCap = 12
		opts.Governor = &BiasedGovernor{Cap: 12, Bias: bias}
		a, b := inst("dwt2d"), inst("streamcluster")
		b.ID = 1
		res, err := Run(opts, NewQueueDispatcher(nil, []*workload.Instance{b, a}))
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	gpuBiased := run(GPUBiased)
	cpuBiased := run(CPUBiased)
	if gpuBiased >= cpuBiased {
		t.Errorf("GPU-biased makespan %v should beat CPU-biased %v on GPU-only work",
			gpuBiased, cpuBiased)
	}
}

func TestStopInstance(t *testing.T) {
	opts := baseOpts()
	target := inst("lud")
	filler := inst("streamcluster")
	filler.ID = 1
	opts.StopInstance = target
	res, err := Run(opts, NewQueueDispatcher([]*workload.Instance{target}, []*workload.Instance{filler}))
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionOf(target) == nil {
		t.Fatal("target did not complete")
	}
	if math.Abs(float64(res.Makespan-res.CompletionOf(target).End)) > 1e-9 {
		t.Error("simulation did not stop at target completion")
	}
}

// When both devices' jobs finish in the same event, the CPU's completion
// is recorded first, and a stop on the CPU ends the run before the GPU's
// job is retired; a stop on the GPU still records the CPU's.
func TestStopInstanceTie(t *testing.T) {
	opts := baseOpts()
	cf := opts.Cfg.Freq(apu.CPU, opts.Cfg.MaxFreqIndex(apu.CPU))
	gf := opts.Cfg.Freq(apu.GPU, opts.Cfg.MaxFreqIndex(apu.GPU))
	// A compute-only program that runs at 1 GOps/s on either device.
	prog := &kernelsim.Program{Name: "tie", Work: 1, CPUEff: 1 / float64(cf), GPUEff: 1 / float64(gf),
		Phases: []kernelsim.Phase{{Frac: 1}}}
	for _, stopDev := range []apu.Device{apu.CPU, apu.GPU} {
		cpu := &workload.Instance{ID: 0, Prog: prog, Scale: 1, Label: "cpu"}
		gpu := &workload.Instance{ID: 1, Prog: prog, Scale: 1, Label: "gpu"}
		opts.StopInstance = [apu.NumDevices]*workload.Instance{cpu, gpu}[stopDev]
		res, err := Run(opts, NewQueueDispatcher([]*workload.Instance{cpu}, []*workload.Instance{gpu}))
		if err != nil {
			t.Fatal(err)
		}
		var got []apu.Device
		for _, c := range res.Completions {
			got = append(got, c.Dev)
		}
		want := []apu.Device{apu.CPU, apu.GPU}
		if stopDev == apu.CPU {
			want = want[:1]
		}
		if !slices.Equal(got, want) {
			t.Errorf("stop on %v: completions on %v, want %v", stopDev, got, want)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Run(Options{}, NewQueueDispatcher(nil, nil)); err == nil {
		t.Error("Run accepted empty options")
	}
	if _, err := Run(Options{Cfg: apu.DefaultConfig()}, NewQueueDispatcher(nil, nil)); err == nil {
		t.Error("Run accepted options without memory model")
	}
	if _, err := Run(baseOpts(), nil); err == nil {
		t.Error("Run accepted nil dispatcher")
	}
}

func TestEmptyScheduleFinishesImmediately(t *testing.T) {
	res, err := Run(baseOpts(), NewQueueDispatcher(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 || len(res.Completions) != 0 {
		t.Errorf("empty schedule: makespan %v, %d completions", res.Makespan, len(res.Completions))
	}
}

func TestMaxTimeGuard(t *testing.T) {
	opts := baseOpts()
	opts.MaxTime = 1 // far too short for any real program
	_, err := StandaloneRun(opts, inst("hotspot"), apu.GPU)
	if err == nil {
		t.Error("MaxTime guard did not fire")
	}
}

func TestBiasString(t *testing.T) {
	if GPUBiased.String() != "GPU-biased" || CPUBiased.String() != "CPU-biased" {
		t.Error("bias names wrong")
	}
}

// adjust is g's answer at power to a view at levels (cf, gf), as a pair.
func adjust(g *BiasedGovernor, power units.Watts, cf, gf int) (int, int) {
	lv := g.Adjust(power, &View{Freq: [apu.NumDevices]int{cf, gf}}, apu.DefaultConfig())
	return lv[apu.CPU], lv[apu.GPU]
}

// The biased governor lowers the correct device first.
func TestBiasedGovernorLowerOrder(t *testing.T) {
	slight := units.Watts(16) // just above a 15 W cap
	cf, gf := adjust(&BiasedGovernor{Cap: 15, Bias: GPUBiased}, slight, 5, 5)
	if cf >= 5 || gf != 5 {
		t.Errorf("GPU-biased over cap: got (%d,%d), want CPU lowered, GPU held", cf, gf)
	}
	cf, gf = adjust(&BiasedGovernor{Cap: 15, Bias: CPUBiased}, slight, 5, 5)
	if cf != 5 || gf >= 5 {
		t.Errorf("CPU-biased over cap: got (%d,%d), want GPU lowered, CPU held", cf, gf)
	}
	// At the floor of the sacrificial device, the other one gives way.
	cf, gf = adjust(&BiasedGovernor{Cap: 15, Bias: GPUBiased}, slight, 0, 5)
	if cf != 0 || gf >= 5 {
		t.Errorf("GPU-biased at CPU floor: got (%d,%d), want GPU lowered", cf, gf)
	}
	// Both at floor: no change even for a huge excess.
	cf, gf = adjust(&BiasedGovernor{Cap: 15, Bias: CPUBiased}, 99, 0, 0)
	if cf != 0 || gf != 0 {
		t.Errorf("at floor: got (%d,%d), want (0,0)", cf, gf)
	}
	// A huge excess sheds multiple levels in one tick.
	cf, _ = adjust(&BiasedGovernor{Cap: 10, Bias: GPUBiased}, 30, 15, 9)
	if cf > 5 {
		t.Errorf("huge excess should shed many CPU levels, got cf=%d", cf)
	}
}

// The biased governor raises the preferred device when there is
// headroom.
func TestBiasedGovernorRaiseOrder(t *testing.T) {
	cf, gf := adjust(&BiasedGovernor{Cap: 30, Bias: GPUBiased}, 10, 3, 3)
	if !(cf == 3 && gf == 4) {
		t.Errorf("GPU-biased with headroom: got (%d,%d), want (3,4)", cf, gf)
	}
	cf, gf = adjust(&BiasedGovernor{Cap: 30, Bias: CPUBiased}, 10, 3, 3)
	if !(cf == 4 && gf == 3) {
		t.Errorf("CPU-biased with headroom: got (%d,%d), want (4,3)", cf, gf)
	}
	// No headroom: hold.
	cf, gf = adjust(&BiasedGovernor{Cap: 15, Bias: GPUBiased}, 14.9, 3, 3)
	if cf != 3 || gf != 3 {
		t.Errorf("no headroom: got (%d,%d), want (3,3)", cf, gf)
	}
}

// Uncapped governor does nothing.
func TestBiasedGovernorUncapped(t *testing.T) {
	cf, gf := adjust(&BiasedGovernor{Cap: 0, Bias: GPUBiased}, 50, 2, 2)
	if cf != 2 || gf != 2 {
		t.Errorf("uncapped governor moved frequencies: (%d,%d)", cf, gf)
	}
}

// runBits prints a run's makespan, energy, heat, completions and power
// trace, floats by their bits.
func runBits(res *Result) string {
	b := math.Float64bits
	out := fmt.Sprintf("%x %x %x %d %d|", b(float64(res.Makespan)), b(res.EnergyJ), b(res.MaxTempC), res.Throttles, res.Power.Len())
	for _, c := range res.Completions {
		out += fmt.Sprintf("%s@%v:%x-%x ", c.Inst.Label, c.Dev, b(float64(c.Start)), b(float64(c.End)))
	}
	for k := 0; k < res.Power.Len(); k++ {
		out += fmt.Sprintf("%x ", b(res.Power.At(k).Value))
	}
	return out
}

// firstView is a Dispatcher that keeps a copy of the first View it is
// offered.
type firstView struct {
	Dispatcher
	v *View
}

func (f *firstView) Next(dev apu.Device, v *View) *Dispatch {
	if f.v == nil {
		c := *v
		f.v = &c
	}
	return f.Dispatcher.Next(dev, v)
}

// A machine carries its heatsink and clock from run to run: a fresh
// machine's run is Run's bit for bit; back-to-back runs on one machine
// are, bit for bit, fresh machines each restored to where the last run
// left the machine; a hot, throttled restore starts under its ceilings
// and at its temperature; every run's scratch starts fresh; a run that
// errors changes nothing; and Restore holds the ceilings to the
// machine's levels.
func TestMachineCarriesHeat(t *testing.T) {
	opts, cpuQ, gpuQ := goldenSetup(goldenScenario{pkgCap: 15, tmax: 45, cpuSlots: 1})
	cfg, tp := opts.Cfg, opts.Cfg.Thermal
	jobs := func() Dispatcher { return NewQueueDispatcher(cpuQ, gpuQ) }

	want, err := Run(opts, jobs())
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewMachine(cfg)
	cold, err := fresh.Run(opts, jobs())
	if err != nil {
		t.Fatal(err)
	}
	if got, w := runBits(cold), runBits(want); got != w || fresh.Clock() != cold.Makespan {
		t.Errorf("a fresh machine's run differs from Run:\n%s\n%s", got, w)
	}
	if cold.Throttles == 0 || fresh.Heat().TempC <= tp.AmbientC {
		t.Fatalf("the batch never heated the node to its trip point: %d throttles, ends at %+v", cold.Throttles, fresh.Heat())
	}

	m := NewMachine(cfg)
	clock, heat := m.Clock(), m.Heat()
	for k := 1; k <= 4; k++ {
		res, err := m.Run(opts, jobs())
		if err != nil {
			t.Fatal(err)
		}
		restored := NewMachine(cfg)
		restored.Restore(clock, heat)
		alone, err := restored.Run(opts, jobs())
		if err != nil {
			t.Fatal(err)
		}
		if got, w := runBits(res), runBits(alone); got != w || m.Clock() != restored.Clock() || m.Heat() != restored.Heat() {
			t.Errorf("run %d on one machine left %v on %+v:\n%s\nrestored, %v on %+v:\n%s",
				k, m.Clock(), m.Heat(), got, restored.Clock(), restored.Heat(), w)
		}
		if k > 1 && heat == NewMachine(cfg).Heat() {
			t.Errorf("run %d started cold", k)
		}
		if m.Clock() != clock+res.Makespan {
			t.Errorf("run %d moved the clock %v -> %v over %v s", k, clock, m.Clock(), res.Makespan)
		}
		clock, heat = m.Clock(), m.Heat()
	}

	hot := apu.Heat{TempC: 46, Ceil: [apu.NumDevices]int{2, 1}}
	warm := NewMachine(cfg)
	warm.Restore(0, hot)
	res, err := warm.Run(opts, jobs())
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTempC < hot.TempC || res.Makespan <= cold.Makespan {
		t.Errorf("a hot, throttled start peaked at %v °C over %v s; cold: %v s", res.MaxTempC, res.Makespan, cold.Makespan)
	}
	// Below the trip point and above the release point, with no governor,
	// nothing but the start moves a level in the first second.
	ungoverned := opts
	ungoverned.Governor = nil
	warm.Restore(0, apu.Heat{TempC: 42.5, Ceil: hot.Ceil})
	first := true
	if _, err := warm.run(ungoverned, jobs(), &probe{sample: func(m *Machine, _, _ float64) {
		if first && (m.freq[apu.CPU] > hot.Ceil[apu.CPU] || m.freq[apu.GPU] > hot.Ceil[apu.GPU]) {
			t.Errorf("a restored throttled machine ran its first second at levels %v above the ceilings %v", m.freq, hot.Ceil)
		}
		first = false
	}}); err != nil {
		t.Fatal(err)
	}

	// A run's scratch starts as a fresh machine's: the segment cache and
	// the plane split the last run left are not the next one's, even
	// where the next run's first job lands in the same slot.
	lud := *workload.MustByName("lud")
	lud.Phases = []kernelsim.Phase{{Frac: 1, BytesPerOp: lud.Phases[0].BytesPerOp}}
	one := []*workload.Instance{{Prog: &lud, Scale: 1, Label: "lud"}}
	plain := baseOpts()
	plain.Cfg = plain.Cfg.WithThermal(apu.ThermalParams{}) // no heat to carry
	again := NewMachine(plain.Cfg)
	var runs []string
	for k := 0; k < 2; k++ {
		fv := &firstView{Dispatcher: NewQueueDispatcher(nil, one)}
		res, err := again.Run(plain, fv)
		if err != nil {
			t.Fatalf("run %d of one job on one machine: %v", k+1, err)
		}
		runs = append(runs, fmt.Sprintf("%+v %s", fv.v, runBits(res)))
	}
	if runs[0] != runs[1] {
		t.Errorf("a machine's second run differs from its first:\n%s\n%s", runs[0], runs[1])
	}

	clock, heat = m.Clock(), m.Heat()
	short := opts
	short.MaxTime = 1
	other := opts
	other.Cfg = apu.DefaultConfig()
	for name, o := range map[string]Options{"past MaxTime": short, "on another machine's Cfg": other, "without a Cfg": {Mem: opts.Mem}} {
		if _, err := m.Run(o, jobs()); err == nil {
			t.Errorf("a run %s succeeded", name)
		}
		if m.Clock() != clock || m.Heat() != heat {
			t.Errorf("a run %s that failed moved the machine from %v on %+v to %v on %+v", name, clock, heat, m.Clock(), m.Heat())
		}
	}

	m.Restore(5, apu.Heat{TempC: 40, Ceil: [apu.NumDevices]int{-1, cfg.NumFreqs(apu.GPU)}})
	if want := (apu.Heat{TempC: 40, Ceil: [apu.NumDevices]int{0, cfg.MaxFreqIndex(apu.GPU)}}); m.Heat() != want || m.Clock() != 5 {
		t.Errorf("restored to %+v at %v, want %+v at 5", m.Heat(), m.Clock(), want)
	}
}
