package sim

import (
	"math"
	"testing"

	"corun/internal/apu"
	"corun/internal/units"
	"corun/internal/workload"
)

// Regression test for the raise/lower flap: a governor that raised
// with no headroom — whenever power plus the step's estimate fit —
// raised one tick and lowered the next, forever, when the cap sat
// between the raise estimate (power + one step of dynamic power) and
// the true cost of the raise (the step plus activity scaling and the
// host thread). The governor's one-step headroom is the fix.
//
// The loop below drives Adjust against the analytic package power of
// whatever operating point the governor picks, with the cap placed
// inside exactly that flap band: from (cpu 8, gpu max) a CPU raise is
// estimated at delta = DynPower(9)-DynPower(8) but truly costs
// 1.06*delta (HostPowerFrac rides the CPU clock), and the cap sits at
// power + 1.03*delta. Without the headroom the governor oscillates
// (8,max) <-> (9,max) every tick; with it it reaches a fixed point.
func TestGovernorSteadyStateNoOscillation(t *testing.T) {
	cfg := apu.DefaultConfig()
	cf, gf := 8, cfg.MaxFreqIndex(apu.GPU)
	delta := cfg.DynPower(apu.CPU, cf+1) - cfg.DynPower(apu.CPU, cf)
	base := cfg.PackagePower(cf, gf, 1, 1, true)
	cap := base + units.Watts(1.03*float64(delta))

	g := &BiasedGovernor{Cap: cap, Bias: GPUBiased}
	view := &View{}
	var hist [][2]int
	for tick := 0; tick < 50; tick++ {
		power := cfg.PackagePower(cf, gf, 1, 1, true)
		view.Freq, view.Plane = [apu.NumDevices]int{cf, gf}, [apu.NumDevices]units.Watts{}
		lv := g.Adjust(power, view, cfg)
		cf, gf = lv[apu.CPU], lv[apu.GPU]
		hist = append(hist, [2]int{cf, gf})
	}
	// After a settling prefix the operating point must be a fixed
	// point: no raise/lower flapping across consecutive ticks.
	settled := hist[9]
	for tick := 10; tick < len(hist); tick++ {
		if hist[tick] != settled {
			t.Fatalf("governor oscillates at tick %d: %v != %v (history tail %v)",
				tick, hist[tick], settled, hist[8:13])
		}
	}
	// And the settled point must actually fit the cap.
	if p := cfg.PackagePower(settled[0], settled[1], 1, 1, true); p > cap {
		t.Fatalf("settled point (%d,%d) burns %v over the cap %v", settled[0], settled[1], p, cap)
	}
}

// A PP1-only cap and an equal package cap must produce different
// frequency decisions on the same trace: the plane cap slows only the
// GPU, the package cap trades both devices (acceptance criterion).
func TestDomainCapDiffersFromPackageCap(t *testing.T) {
	run := func(g Governor, dc apu.DomainCaps, pkgCap units.Watts) *traced {
		t.Helper()
		batch, err := workload.Generate(workload.GenOptions{N: 6, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		var cpuQ, gpuQ []*workload.Instance
		for i, in := range batch {
			if i%2 == 0 {
				cpuQ = append(cpuQ, in)
			} else {
				gpuQ = append(gpuQ, in)
			}
		}
		opts := baseOpts()
		opts.Governor = g
		opts.DomainCaps = dc
		opts.PowerCap = pkgCap
		res, err := runTraced(opts, NewQueueDispatcher(cpuQ, gpuQ))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const capW = 9
	pp1 := run(&BiasedGovernor{Domains: apu.DomainCaps{PP1: capW}, Bias: GPUBiased},
		apu.DomainCaps{PP1: capW}, 0)
	pkg := run(&BiasedGovernor{Cap: capW, Bias: GPUBiased}, apu.DomainCaps{}, capW)

	same := pp1.CPUFreq.Len() == pkg.CPUFreq.Len()
	if same {
		for i := 0; i < pp1.CPUFreq.Len(); i++ {
			if pp1.CPUFreq.At(i).Value != pkg.CPUFreq.At(i).Value ||
				pp1.GPUFreq.At(i).Value != pkg.GPUFreq.At(i).Value {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("PP1-only cap and equal package cap produced identical frequency traces")
	}
	if pp1.Binding != apu.ConstraintPP1 {
		t.Errorf("PP1-capped run reports binding %v, want pp1", pp1.Binding)
	}
	if pkg.Binding != apu.ConstraintPackage {
		t.Errorf("package-capped run reports binding %v, want package", pkg.Binding)
	}
}

// Invariant: at every sample, the per-plane powers plus the constant
// uncore (idle) power reconstruct the package power.
func TestInvariantDomainSplitSumsToPackage(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		res, _ := randomBatchRun(t, seed, 2, &BiasedGovernor{Cap: 13, Bias: GPUBiased}, 13)
		cfg := apu.DefaultConfig()
		if res.PP0.Len() != res.Power.Len() || res.PP1.Len() != res.Power.Len() {
			t.Fatalf("seed %d: series lengths differ: pp0 %d, pp1 %d, package %d",
				seed, res.PP0.Len(), res.PP1.Len(), res.Power.Len())
		}
		for i := 0; i < res.Power.Len(); i++ {
			pkg := res.Power.At(i).Value
			sum := res.PP0.At(i).Value + res.PP1.At(i).Value + float64(cfg.IdlePower)
			if math.Abs(pkg-sum) > 1e-6 {
				t.Fatalf("seed %d sample %d: pp0+pp1+uncore = %v != package %v",
					seed, i, sum, pkg)
			}
		}
		// Run-wide averages must decompose the same way.
		if res.Makespan > 0 {
			sum := float64(res.AvgPP0) + float64(res.AvgPP1) + float64(cfg.IdlePower)
			if math.Abs(sum-float64(res.AvgPower)) > 1e-6 {
				t.Fatalf("seed %d: avg pp0+pp1+uncore = %v != avg power %v", seed, sum, res.AvgPower)
			}
		}
	}
}

// Invariant: the thermal throttle holds the heatsink node at T_max —
// temperature may overshoot by at most one tick's worth of heat input
// (the model reacts after the segment that crossed the trip point).
func TestInvariantThermalThrottleBoundsTemperature(t *testing.T) {
	cfg := apu.DefaultConfig()
	cfg.Thermal.TMaxC = 60
	cfg.Thermal.HysteresisC = 2

	batch, err := workload.Generate(workload.GenOptions{N: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var cpuQ, gpuQ []*workload.Instance
	for i, in := range batch {
		if i%2 == 0 {
			cpuQ = append(cpuQ, in)
		} else {
			gpuQ = append(gpuQ, in)
		}
	}
	opts := baseOpts()
	opts.Cfg = cfg
	res, err := runTraced(opts, NewQueueDispatcher(cpuQ, gpuQ))
	if err != nil {
		t.Fatal(err)
	}

	// At full tilt the machine steadies near 81 C, far over the 60 C
	// trip — the run must throttle and report the thermal constraint.
	if res.Throttles == 0 {
		t.Fatalf("hot run never throttled (max temp %.1f C)", res.MaxTempC)
	}
	if res.Binding != apu.ConstraintThermal {
		t.Errorf("binding = %v, want thermal", res.Binding)
	}

	// One tick's worth of heat: the largest temperature step a single
	// sample interval at max package power can produce.
	maxP := cfg.PackagePower(cfg.MaxFreqIndex(apu.CPU), cfg.MaxFreqIndex(apu.GPU), 1, 1, true)
	oneTick := float64(maxP) * float64(sampleInterval) / cfg.Thermal.CThermal
	if res.MaxTempC > cfg.Thermal.TMaxC+oneTick {
		t.Errorf("max temp %.3f C exceeds TMax %.1f C by more than one tick's heat %.3f C",
			res.MaxTempC, cfg.Thermal.TMaxC, oneTick)
	}
	for i := 0; i < res.TempC.Len(); i++ {
		if v := res.TempC.At(i).Value; v > cfg.Thermal.TMaxC+oneTick {
			t.Errorf("sample %d: temp %.3f C over the throttle bound", i, v)
		}
	}

	// The untouched default machine must never throttle.
	cool, _ := randomBatchRun(t, 5, 1, nil, 0)
	if cool.Throttles != 0 {
		t.Errorf("default machine throttled %d times", cool.Throttles)
	}
	if cool.Binding != apu.ConstraintNone {
		t.Errorf("unconstrained run reports binding %v", cool.Binding)
	}
}

// HardCap with domain caps clamps each plane within the event, so no
// sample may exceed its plane cap.
func TestHardCapEnforcesDomainCaps(t *testing.T) {
	batch, err := workload.Generate(workload.GenOptions{N: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var cpuQ, gpuQ []*workload.Instance
	for i, in := range batch {
		if i%2 == 0 {
			cpuQ = append(cpuQ, in)
		} else {
			gpuQ = append(gpuQ, in)
		}
	}
	dc := apu.DomainCaps{PP0: 6, PP1: 5}
	opts := baseOpts()
	opts.HardCap = true
	opts.DomainCaps = dc
	res, err := runTraced(opts, NewQueueDispatcher(cpuQ, gpuQ))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.PP0.Len(); i++ {
		if w := res.PP0.At(i).Value; w > float64(dc.PP0)+1e-6 {
			t.Errorf("sample %d: pp0 %v W over its %v W cap under HardCap", i, w, dc.PP0)
		}
		if w := res.PP1.At(i).Value; w > float64(dc.PP1)+1e-6 {
			t.Errorf("sample %d: pp1 %v W over its %v W cap under HardCap", i, w, dc.PP1)
		}
	}
	if res.DomainViolations != 0 {
		t.Errorf("HardCap run still recorded %d domain violations", res.DomainViolations)
	}
}
