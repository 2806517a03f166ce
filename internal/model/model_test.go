package model

import (
	"math"
	"testing"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/profile"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// smallChar builds a cheap characterization for unit tests: 5 bandwidth
// levels, 2x2 frequency grid.
func smallChar(t *testing.T) (*Characterization, *apu.Config, *memsys.Model) {
	t.Helper()
	cfg := apu.DefaultConfig()
	mem := memsys.Default()
	c, err := Characterize(CharacterizeOptions{
		Cfg: cfg, Mem: mem,
		Levels:        []units.GBps{0, 2.75, 5.5, 8.25, 11},
		CPUFreqLevels: []int{0, 15},
		GPUFreqLevels: []int{0, 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, cfg, mem
}

func TestBracket(t *testing.T) {
	xs := []float64{0, 2, 4, 8}
	cases := []struct {
		x      float64
		i0, i1 int
		t      float64
	}{
		{-1, 0, 0, 0},
		{0, 0, 0, 0},
		{1, 0, 1, 0.5},
		{2, 0, 1, 1}, // exact grid point expressed as t=1 on the lower cell
		{6, 2, 3, 0.5},
		{8, 3, 3, 0},
		{99, 3, 3, 0},
	}
	for _, c := range cases {
		got := bracket(xs, c.x)
		if got.lo != c.i0 || got.hi != c.i1 || math.Abs(got.t-c.t) > 1e-12 {
			t.Errorf("bracket(%v) = %+v, want (%d,%d,%v)", c.x, got, c.i0, c.i1, c.t)
		}
	}
	if got := bracket([]float64{3}, 5); got != (cut{}) {
		t.Error("single-point bracket broken")
	}
}

func TestSurfaceInterpolationExactAtGridPoints(t *testing.T) {
	c, _, _ := smallChar(t)
	s := c.SurfaceAt(1, 1) // max freqs
	for i, cb := range s.CPUBW {
		for j, gb := range s.GPUBW {
			got := s.valueAt(apu.CPU, cb, gb)
			if math.Abs(got-s.DegCPU[i][j]) > 1e-9 {
				t.Errorf("surface not exact at grid point (%d,%d): %v vs %v", i, j, got, s.DegCPU[i][j])
			}
		}
	}
}

func TestSurfaceShape(t *testing.T) {
	c, _, _ := smallChar(t)
	s := c.SurfaceAt(1, 1)
	if len(s.CPUBW) != 5 || len(s.DegCPU) != 5 || len(s.DegCPU[0]) != 5 {
		t.Fatal("surface dimensions wrong")
	}
	// Degradations are non-negative and the zero-demand row/column is
	// (near) zero: a compute-only kernel suffers no memory contention.
	for i := range s.DegCPU {
		for j := range s.DegCPU[i] {
			if s.DegCPU[i][j] < -1e-9 || s.DegGPU[i][j] < -1e-9 {
				t.Errorf("negative degradation at (%d,%d)", i, j)
			}
		}
	}
	for j := range s.DegCPU[0] {
		if s.DegCPU[0][j] > 1e-6 {
			t.Errorf("compute-only CPU kernel degraded by %v", s.DegCPU[0][j])
		}
	}
	for i := range s.DegGPU {
		if s.DegGPU[i][0] > 1e-6 {
			t.Errorf("compute-only GPU kernel degraded by %v", s.DegGPU[i][0])
		}
	}
}

// The characterized surface reproduces the figures' qualitative
// asymmetry: at the top corner the CPU suffers more than the GPU; both
// worst cases fall in the paper's ranges.
func TestSurfaceMatchesFigures5And6(t *testing.T) {
	c, _, _ := smallChar(t)
	s := c.SurfaceAt(1, 1)
	last := len(s.DegCPU) - 1
	cpuWorst, gpuWorst := s.DegCPU[last][last], s.DegGPU[last][last]
	if cpuWorst <= gpuWorst {
		t.Errorf("CPU worst case %.2f should exceed GPU worst case %.2f", cpuWorst, gpuWorst)
	}
	if cpuWorst < 0.45 || cpuWorst > 0.95 {
		t.Errorf("CPU worst case %.2f outside the ~0.65 region", cpuWorst)
	}
	if gpuWorst < 0.25 || gpuWorst > 0.60 {
		t.Errorf("GPU worst case %.2f outside the ~0.45 region", gpuWorst)
	}
}

func TestCharacterizeValidation(t *testing.T) {
	cfg, mem := apu.DefaultConfig(), memsys.Default()
	if _, err := Characterize(CharacterizeOptions{}); err == nil {
		t.Error("empty options accepted")
	}
	if _, err := Characterize(CharacterizeOptions{Cfg: cfg, Mem: mem,
		CPUFreqLevels: []int{5, 3}}); err == nil {
		t.Error("descending level list accepted")
	}
	if _, err := Characterize(CharacterizeOptions{Cfg: cfg, Mem: mem,
		CPUFreqLevels: []int{99}}); err == nil {
		t.Error("out-of-range level accepted")
	}
	if _, err := Characterize(CharacterizeOptions{Cfg: cfg, Mem: mem,
		GPUFreqLevels: []int{}}); err == nil {
		t.Error("explicit empty GPU level list accepted")
	}
}

func TestStagedFrequencyInterpolation(t *testing.T) {
	c, cfg, _ := smallChar(t)
	// At an intermediate frequency the prediction lies between the
	// values of the characterized extremes.
	cpuBW, gpuBW := 6.0, 7.0
	loF := float64(cfg.Freq(apu.CPU, 0))
	hiF := float64(cfg.Freq(apu.CPU, 15))
	gF := float64(cfg.Freq(apu.GPU, 9))
	dLo := c.Degradation(apu.CPU, cpuBW, gpuBW, loF, gF)
	dHi := c.Degradation(apu.CPU, cpuBW, gpuBW, hiF, gF)
	dMid := c.Degradation(apu.CPU, cpuBW, gpuBW, (loF+hiF)/2, gF)
	lo, hi := math.Min(dLo, dHi), math.Max(dLo, dHi)
	if dMid < lo-1e-9 || dMid > hi+1e-9 {
		t.Errorf("staged interpolation %v outside [%v,%v]", dMid, lo, hi)
	}
}

// End-to-end predictor accuracy: predictions for real-program pairs at
// max frequency land within a plausible error of the simulated ground
// truth. The paper reports ~15% average error; we accept anything
// clearly informative (mean < 0.25 absolute-relative error on
// meaningfully degraded pairs).
func TestPredictorAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization pass is slow for -short")
	}
	cfg := apu.DefaultConfig()
	mem := memsys.Default()
	char, err := Characterize(CharacterizeOptions{Cfg: cfg, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	batch := workload.Batch8()
	prof, err := profile.Collect(cfg, mem, batch)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := NewPredictor(char, prof)
	if err != nil {
		t.Fatal(err)
	}

	cmax := cfg.MaxFreqIndex(apu.CPU)
	gmax := cfg.MaxFreqIndex(apu.GPU)
	simOpts := sim.Options{Cfg: cfg, Mem: mem}
	var errs []float64
	pairs := [][2]int{{2, 0}, {2, 3}, {5, 0}, {1, 4}, {0, 6}, {7, 3}}
	for _, pr := range pairs {
		i, j := pr[0], pr[1]
		truth, err := sim.CoRun(simOpts, batch[i], apu.CPU, batch[j], cmax, gmax)
		if err != nil {
			t.Fatal(err)
		}
		guess := pred.Degradation(i, apu.CPU, cmax, j, gmax)
		// Compare slowdown factors (1+d), the quantity that matters
		// for makespan prediction.
		e := units.RelErr(1+guess, 1+truth.Degradation)
		errs = append(errs, e)
		t.Logf("%s beside %s: predicted %.3f, truth %.3f", batch[i].Label, batch[j].Label, guess, truth.Degradation)
	}
	sum := 0.0
	for _, e := range errs {
		sum += e
	}
	mean := sum / float64(len(errs))
	if mean > 0.25 {
		t.Errorf("mean slowdown-factor error %.3f too large for a useful model", mean)
	}
}

func TestNewPredictorValidation(t *testing.T) {
	if _, err := NewPredictor(nil, nil); err == nil {
		t.Error("nil inputs accepted")
	}
	if _, err := NewPredictor(&Characterization{}, &profile.Standalone{}); err == nil {
		t.Error("empty characterization accepted")
	}
}

func TestPredictorStandaloneDelegation(t *testing.T) {
	c, cfg, mem := smallChar(t)
	batch := workload.Batch8()
	prof, err := profile.Collect(cfg, mem, batch)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(c, prof)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumJobs() != 8 {
		t.Errorf("NumJobs = %d", p.NumJobs())
	}
	if p.StandaloneTime(2, apu.CPU, 15) != prof.Time(2, apu.CPU, 15) {
		t.Error("StandaloneTime does not delegate to profile")
	}
	if p.CoRunPower(2, 15, -1, 0) != prof.Power(2, apu.CPU, 15) {
		t.Error("a CPU solo run's power is not its profiled power")
	}
}

// The sum-of-standalones power prediction is close to the simulated
// co-run power (the paper reports <= 8% error, average 1.92%).
func TestCoRunPowerPrediction(t *testing.T) {
	c, cfg, mem := smallChar(t)
	batch := workload.Batch8()
	prof, err := profile.Collect(cfg, mem, batch)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(c, prof)
	if err != nil {
		t.Fatal(err)
	}
	ci := cfg.ClosestFreqIndex(apu.CPU, 2.2)
	gi := cfg.ClosestFreqIndex(apu.GPU, 0.85)
	truth, err := sim.CoRun(sim.Options{Cfg: cfg, Mem: mem}, batch[2], apu.CPU, batch[0], ci, gi)
	if err != nil {
		t.Fatal(err)
	}
	guess := p.CoRunPower(2, ci, 0, gi)
	if units.RelErr(float64(guess), float64(truth.AvgPower)) > 0.10 {
		t.Errorf("power prediction %v vs truth %v (>10%% off)", guess, truth.AvgPower)
	}
	// Idle-device conventions.
	if got := p.CoRunPower(-1, 0, 0, gi); got != prof.Power(0, apu.GPU, gi) {
		t.Errorf("GPU-only power = %v, want profile value", got)
	}
	if got := p.CoRunPower(2, ci, -1, 0); got != prof.Power(2, apu.CPU, ci) {
		t.Errorf("CPU-only power = %v, want profile value", got)
	}
	if got := p.CoRunPower(-1, 0, -1, 0); got != cfg.IdlePower {
		t.Errorf("all-idle power = %v, want idle", got)
	}
}

func TestGroundTruthOracle(t *testing.T) {
	cfg, mem := apu.DefaultConfig(), memsys.Default()
	batch := workload.Batch8()
	prof, err := profile.Collect(cfg, mem, batch)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewGroundTruthOracle(prof, batch)
	if err != nil {
		t.Fatal(err)
	}
	cmax := cfg.MaxFreqIndex(apu.CPU)
	gmax := cfg.MaxFreqIndex(apu.GPU)
	d1 := o.Degradation(2, apu.CPU, cmax, 0, gmax)
	truth, err := sim.CoRun(sim.Options{Cfg: cfg, Mem: mem}, batch[2], apu.CPU, batch[0], cmax, gmax)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d1-truth.Degradation) > 1e-9 {
		t.Errorf("oracle %v != measured truth %v", d1, truth.Degradation)
	}
	// Memoized second call returns the same value.
	if d2 := o.Degradation(2, apu.CPU, cmax, 0, gmax); d2 != d1 {
		t.Error("memoization broken")
	}
	if _, err := NewGroundTruthOracle(nil, batch); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := NewGroundTruthOracle(prof, batch[:3]); err == nil {
		t.Error("mismatched batch accepted")
	}
}
