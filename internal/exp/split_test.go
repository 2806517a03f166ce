package exp

import (
	"math"
	"testing"

	"corun/internal/apu"
	"corun/internal/kernelsim"
	"corun/internal/memsys"
	"corun/internal/units"
	"corun/internal/workload"
)

// evaluateSplitDefault evaluates a program on the default machine.
func evaluateSplitDefault(syncLoss float64, prog *kernelsim.Program, steps int) (*SplitStudy, error) {
	return evaluateSplit(apu.DefaultConfig(), memsys.Default(), syncLoss, prog, steps)
}

func TestSplitValidation(t *testing.T) {
	cfg, mem := apu.DefaultConfig(), memsys.Default()
	prog := workload.MustByName("lud")
	if _, err := splitTime(cfg, mem, splitSyncLoss, prog, -0.1); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := splitTime(cfg, mem, splitSyncLoss, prog, 1.1); err == nil {
		t.Error("alpha above one accepted")
	}
	if _, err := splitTime(cfg, mem, splitSyncLoss, &kernelsim.Program{}, 0.5); err == nil {
		t.Error("invalid program accepted")
	}
	if _, err := evaluateSplitDefault(splitSyncLoss, prog, 1); err == nil {
		t.Error("single-step evaluation accepted")
	}
}

// The degenerate endpoints equal the standalone runs exactly.
func TestSplitEndpointsMatchStandalone(t *testing.T) {
	prog := workload.MustByName("hotspot")
	mem := memsys.Default()
	cfg := apu.DefaultConfig()
	cpuWant := prog.StandaloneTime(apu.CPU, cfg.Freq(apu.CPU, cfg.MaxFreqIndex(apu.CPU)), mem, 1)
	gpuWant := prog.StandaloneTime(apu.GPU, cfg.Freq(apu.GPU, cfg.MaxFreqIndex(apu.GPU)), mem, 1)
	gotCPU, err := splitTime(cfg, mem, splitSyncLoss, prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotGPU, err := splitTime(cfg, mem, splitSyncLoss, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if units.RelErr(float64(gotCPU), float64(cpuWant)) > 1e-6 {
		t.Errorf("alpha=1 time %v, want %v", gotCPU, cpuWant)
	}
	if units.RelErr(float64(gotGPU), float64(gpuWant)) > 1e-6 {
		t.Errorf("alpha=0 time %v, want %v", gotGPU, gpuWant)
	}
}

// Splitting carries the overhead: with a huge overhead no split can
// win.
func TestSplitOverheadDominates(t *testing.T) {
	st, err := evaluateSplitDefault(3.0, workload.MustByName("hotspot"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.Gain > 1e-9 {
		t.Errorf("split won (%v) despite 300%% overhead", st.Gain)
	}
	// The best configuration degenerates to a single device.
	if st.BestAlpha != 0 && st.BestAlpha != 1 {
		t.Errorf("best alpha %v should be an endpoint", st.BestAlpha)
	}
}

// The cited study's finding is program-dependent ("to co-run or not to
// co-run"): strongly device-preferred or memory-heavy kernels gain
// little or nothing from splitting, while a balanced compute-bound
// kernel (lud) can win. The scheduler-facing conclusion — whole-job
// scheduling is the safe general policy — follows from the first group.
func TestSplitProgramDependent(t *testing.T) {
	gains := map[string]float64{}
	for _, name := range workload.Names() {
		st, err := evaluateSplitDefault(splitSyncLoss, workload.MustByName(name), 10)
		if err != nil {
			t.Fatal(err)
		}
		if st.BestSplit > st.BestSingle+1e-9 {
			t.Errorf("%s: best split %v worse than best single %v (evaluateSplit must include endpoints)",
				name, st.BestSplit, st.BestSingle)
		}
		gains[name] = st.Gain
		t.Logf("%-14s single %7.2fs on %v, best split %7.2fs at alpha=%.1f (gain %+.1f%%)",
			name, float64(st.BestSingle), st.BestSingleDev, float64(st.BestSplit), st.BestAlpha, 100*st.Gain)
	}
	// Memory-heavy / strongly-preferred programs: splitting is not
	// worthwhile (the group that motivates whole-job scheduling).
	for _, name := range []string{"dwt2d", "streamcluster", "heartwall"} {
		if gains[name] > 0.05 {
			t.Errorf("%s gains %+.1f%% from splitting; expected <= 5%%", name, 100*gains[name])
		}
	}
	// The balanced non-preferred program is the one that genuinely
	// benefits — program-dependence, not a universal win.
	if gains["lud"] < math.Max(gains["dwt2d"], gains["streamcluster"])+0.10 {
		t.Errorf("lud (%.1f%%) should clearly out-gain the memory-heavy group", 100*gains["lud"])
	}
}

// With pessimistic per-launch synchronization (slow early OpenCL
// drivers), splitting loses for the large majority — the regime the
// cited study measured.
func TestSplitLosesUnderSlowSync(t *testing.T) {
	wins := 0
	for _, name := range workload.Names() {
		st, err := evaluateSplitDefault(slowSyncLoss, workload.MustByName(name), 10)
		if err != nil {
			t.Fatal(err)
		}
		if st.Gain > 0.05 {
			wins++
		}
	}
	if wins > 2 {
		t.Errorf("%d of 8 programs still gain >5%% under slow sync", wins)
	}
}

// Without the barrier loss, splitting a compute-bound program gains
// clearly despite the boundary traffic and the partition cost — the
// mechanism itself works.
func TestFreeSplitOfComputeBoundGains(t *testing.T) {
	st, err := evaluateSplitDefault(1e-12, workload.MustByName("hotspot"), 20)
	if err != nil {
		t.Fatal(err)
	}
	if st.Gain < 0.10 {
		t.Errorf("free split of hotspot gains only %+.1f%%; the fragments should add throughput", 100*st.Gain)
	}
	if st.BestAlpha <= 0 || st.BestAlpha >= 1 {
		t.Errorf("free split best alpha %v should be interior", st.BestAlpha)
	}
}
