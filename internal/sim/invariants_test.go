package sim

import (
	"math"
	"math/rand"
	"testing"

	"corun/internal/apu"
	"corun/internal/units"
	"corun/internal/workload"
)

// randomBatchRun executes a seeded random schedule of a seeded random
// batch and returns the result for invariant checks.
func randomBatchRun(t *testing.T, seed int64, cpuSlots int, governor Governor, cap units.Watts) (*traced, []*workload.Instance) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	batch, err := workload.Generate(workload.GenOptions{N: 4 + rng.Intn(5), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var cpuQ, gpuQ []*workload.Instance
	for _, in := range batch {
		if rng.Intn(2) == 0 {
			cpuQ = append(cpuQ, in)
		} else {
			gpuQ = append(gpuQ, in)
		}
	}
	opts := baseOpts()
	opts.CPUSlots = cpuSlots
	opts.Governor = governor
	opts.PowerCap = cap
	res, err := runTraced(opts, NewQueueDispatcher(cpuQ, gpuQ))
	if err != nil {
		t.Fatal(err)
	}
	return res, batch
}

// Conservation: every dispatched job completes exactly once, and the
// makespan equals the last completion.
func TestInvariantCompletionConservation(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		res, batch := randomBatchRun(t, seed, 1, nil, 0)
		if len(res.Completions) != len(batch) {
			t.Fatalf("seed %d: %d completions for %d jobs", seed, len(res.Completions), len(batch))
		}
		seen := map[*workload.Instance]bool{}
		last := units.Seconds(0)
		for _, c := range res.Completions {
			if seen[c.Inst] {
				t.Fatalf("seed %d: %s completed twice", seed, c.Inst.Label)
			}
			seen[c.Inst] = true
			if c.End > last {
				last = c.End
			}
		}
		if math.Abs(float64(res.Makespan-last)) > 1e-9 {
			t.Errorf("seed %d: makespan %v != last completion %v", seed, res.Makespan, last)
		}
	}
}

// Energy equals the power-trace integral: the interval-averaged samples
// times their spans must sum to the reported energy (the final partial
// interval is not sampled, so compare over sampled time).
func TestInvariantEnergyMatchesTrace(t *testing.T) {
	res, _ := randomBatchRun(t, 3, 1, nil, 0)
	if res.Power.Len() < 2 {
		t.Skip("run too short to check")
	}
	sampled := 0.0
	prev := units.Seconds(0)
	for i := 0; i < res.Power.Len(); i++ {
		s := res.Power.At(i)
		sampled += s.Value * float64(s.Time-prev)
		prev = s.Time
	}
	// Energy over the sampled prefix cannot exceed total energy, and
	// the tail is bounded by max power times the tail duration.
	if sampled > res.EnergyJ+1e-6 {
		t.Errorf("trace integral %v exceeds total energy %v", sampled, res.EnergyJ)
	}
	tail := float64(res.Makespan-prev) * float64(res.MaxSample)
	if res.EnergyJ-sampled > tail+1e-6 {
		t.Errorf("unsampled energy %v exceeds max-power tail bound %v", res.EnergyJ-sampled, tail)
	}
}

// Power stays within physical bounds: every sample lies between idle
// power and the machine's maximum package power.
func TestInvariantPowerBounds(t *testing.T) {
	cfg := apu.DefaultConfig()
	maxP := float64(cfg.PackagePower(cfg.MaxFreqIndex(apu.CPU), cfg.MaxFreqIndex(apu.GPU), 1, 1, true))
	for seed := int64(0); seed < 6; seed++ {
		res, _ := randomBatchRun(t, seed, 2, nil, 0)
		for i := 0; i < res.Power.Len(); i++ {
			v := res.Power.At(i).Value
			if v < float64(cfg.IdlePower)-1e-9 || v > maxP+1e-9 {
				t.Fatalf("seed %d: sample %v outside [idle=%v, max=%v]", seed, v, cfg.IdlePower, maxP)
			}
		}
	}
}

// Co-running never makes a job finish faster than its standalone time
// at the same frequency (interference only hurts).
func TestInvariantNoSuperlinearSpeedup(t *testing.T) {
	opts := baseOpts()
	cfg := opts.Cfg
	for seed := int64(0); seed < 6; seed++ {
		res, _ := randomBatchRun(t, seed, 1, nil, 0)
		for _, c := range res.Completions {
			f := cfg.Freq(c.Dev, cfg.MaxFreqIndex(c.Dev))
			solo := c.Inst.Prog.StandaloneTime(c.Dev, f, opts.Mem, c.Inst.Scale)
			if float64(c.Duration()) < float64(solo)-1e-6 {
				t.Errorf("seed %d: %s ran faster co-scheduled (%v) than alone (%v)",
					seed, c.Inst.Label, c.Duration(), solo)
			}
		}
	}
}

// The makespan is bounded below by the heaviest single device queue's
// standalone time and above by fully serialized execution with maximal
// degradation slack.
func TestInvariantMakespanBounds(t *testing.T) {
	opts := baseOpts()
	cfg := opts.Cfg
	for seed := int64(10); seed < 16; seed++ {
		res, batch := randomBatchRun(t, seed, 1, nil, 0)
		lower := 0.0
		upper := 0.0
		for _, c := range res.Completions {
			f := cfg.Freq(c.Dev, cfg.MaxFreqIndex(c.Dev))
			solo := float64(c.Inst.Prog.StandaloneTime(c.Dev, f, opts.Mem, c.Inst.Scale))
			upper += solo * 3 // no plausible degradation triples a job
			_ = solo
		}
		perDev := map[apu.Device]float64{}
		for _, c := range res.Completions {
			f := cfg.Freq(c.Dev, cfg.MaxFreqIndex(c.Dev))
			perDev[c.Dev] += float64(c.Inst.Prog.StandaloneTime(c.Dev, f, opts.Mem, c.Inst.Scale))
		}
		for _, v := range perDev {
			if v > lower {
				lower = v
			}
		}
		if float64(res.Makespan) < lower-1e-6 {
			t.Errorf("seed %d: makespan %v below the busiest queue's solo sum %v", seed, res.Makespan, lower)
		}
		if float64(res.Makespan) > upper+1e-6 {
			t.Errorf("seed %d: makespan %v above the serialized bound %v", seed, res.Makespan, upper)
		}
		_ = batch
	}
}

// A reactive governor must never raise power above what the uncapped
// run drew, and its run can only be slower.
func TestInvariantGovernorOnlySlows(t *testing.T) {
	free, _ := randomBatchRun(t, 21, 1, nil, 0)
	capped, _ := randomBatchRun(t, 21, 1, &BiasedGovernor{Cap: 13, Bias: GPUBiased}, 13)
	if capped.Makespan < free.Makespan-1e-9 {
		t.Errorf("capped run (%v) faster than uncapped (%v)", capped.Makespan, free.Makespan)
	}
	if capped.AvgPower > free.AvgPower+1e-9 {
		t.Errorf("capped average power %v above uncapped %v", capped.AvgPower, free.AvgPower)
	}
}

// Multiprogramming degree monotonically hurts a CPU-only batch.
func TestInvariantMultiprogrammingMonotone(t *testing.T) {
	batch, err := workload.Generate(workload.GenOptions{N: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	prev := units.Seconds(0)
	for slots := 1; slots <= 4; slots++ {
		opts := baseOpts()
		opts.CPUSlots = slots
		res, err := Run(opts, NewQueueDispatcher(batch, nil))
		if err != nil {
			t.Fatal(err)
		}
		if slots > 1 && res.Makespan < prev-1e-6 {
			t.Errorf("slots=%d makespan %v faster than slots=%d (%v)", slots, res.Makespan, slots-1, prev)
		}
		prev = res.Makespan
	}
}

// The hardware cap clamp keeps every sample at or below the cap and
// only slows execution down.
func TestHardCapClampsPower(t *testing.T) {
	mk := func(hard bool) *Result {
		opts := baseOpts()
		opts.PowerCap = 13
		opts.HardCap = hard
		a2, b2 := inst("dwt2d"), inst("streamcluster")
		b2.ID = 1
		res, err := Run(opts, NewQueueDispatcher([]*workload.Instance{a2}, []*workload.Instance{b2}))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free := mk(false)
	hard := mk(true)
	if free.CapViolations == 0 {
		t.Fatal("uncapped max-frequency co-run should violate 13 W")
	}
	if hard.CapViolations != 0 {
		t.Errorf("hard cap left %d violating samples (max excess %v)", hard.CapViolations, hard.MaxExcess)
	}
	if hard.Makespan <= free.Makespan {
		t.Errorf("hard-capped run (%v) should be slower than unconstrained (%v)", hard.Makespan, free.Makespan)
	}
}

// The hardware clamp is GPU-biased: it lowers the CPU first and
// touches the GPU only once the CPU sits at its lowest level.
func TestHardCapBias(t *testing.T) {
	opts := baseOpts()
	opts.PowerCap = 13
	opts.HardCap = true
	a, b := inst("dwt2d"), inst("streamcluster")
	b.ID = 1
	res, err := runTraced(opts, NewQueueDispatcher([]*workload.Instance{a}, []*workload.Instance{b}))
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.Cfg
	cpuMax := float64(cfg.Freq(apu.CPU, cfg.MaxFreqIndex(apu.CPU)))
	cpuMin := float64(cfg.Freq(apu.CPU, 0))
	gpuMax := float64(cfg.Freq(apu.GPU, cfg.MaxFreqIndex(apu.GPU)))
	clamped := false
	for i := 0; i < res.CPUFreq.Len(); i++ {
		c, g := res.CPUFreq.At(i).Value, res.GPUFreq.At(i).Value
		if g < gpuMax && c > cpuMin {
			t.Fatalf("sample %d: GPU lowered to %v GHz while the CPU still ran at %v GHz", i, g, c)
		}
		clamped = clamped || c < cpuMax
	}
	if !clamped {
		t.Fatal("the 13 W clamp never lowered the CPU")
	}
}

// Frequency traces record governor behaviour: a capped run shows lower
// clocks than an uncapped one, and the traces align with power samples.
func TestFrequencyTraces(t *testing.T) {
	free, _ := randomBatchRun(t, 33, 1, nil, 0)
	capped, _ := randomBatchRun(t, 33, 1, &BiasedGovernor{Cap: 13, Bias: GPUBiased}, 13)
	if free.CPUFreq.Len() != free.Power.Len() || free.GPUFreq.Len() != free.Power.Len() {
		t.Fatalf("trace lengths diverge: %d/%d/%d",
			free.Power.Len(), free.CPUFreq.Len(), free.GPUFreq.Len())
	}
	cfg := apu.DefaultConfig()
	maxCPU := float64(cfg.Freq(apu.CPU, cfg.MaxFreqIndex(apu.CPU)))
	// Uncapped run stays at max clocks throughout.
	for i := 0; i < free.CPUFreq.Len(); i++ {
		if free.CPUFreq.At(i).Value != maxCPU {
			t.Fatalf("uncapped CPU clock %v at sample %d", free.CPUFreq.At(i).Value, i)
		}
	}
	// Capped run must have throttled the CPU at some point.
	throttled := false
	for i := 0; i < capped.CPUFreq.Len(); i++ {
		if capped.CPUFreq.At(i).Value < maxCPU {
			throttled = true
			break
		}
	}
	if !throttled {
		t.Error("capped run never throttled the CPU")
	}
}
