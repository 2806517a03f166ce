package exp

// The kernel-splitting study is the fine-grained alternative the paper
// scopes out in section II: splitting a single kernel's work across the
// CPU and the GPU so both devices execute parts of one job
// concurrently.
//
// The paper cites prior work (Zhang et al., MASCOTS'15, "To co-run or
// not to co-run") finding that "due to the complexity in data
// partitioning and communications, such partitioning often yields even
// worse performance than using a single processor" on integrated
// architectures. This study makes that trade-off measurable: a split
// job becomes two fragments that
//
//   - contend for the shared memory system (both sides of the same
//     die pull from one controller);
//   - exchange boundary data every iteration, inflating each
//     fragment's memory intensity;
//   - synchronize at every kernel launch, so within each phase the
//     slower fragment gates progress and a residual sync loss applies;
//   - pay a one-time partition/merge cost.
//
// The outcome per program answers "to split or not to split": balanced
// compute-bound kernels can win, memory-bound or strongly device-
// preferred ones rarely do — which is why the paper schedules whole
// jobs.

import (
	"fmt"
	"io"
	"math"

	"corun/internal/apu"
	"corun/internal/kernelsim"
	"corun/internal/memsys"
	"corun/internal/units"
	"corun/internal/workload"
)

// Cost parameters, sized to the overheads the cited study attributes
// to manual CPU+GPU work partitioning on integrated parts.
const (
	// splitSyncLoss is the default model's residual per-iteration
	// barrier loss (launch overhead, imbalance jitter the static
	// partition cannot absorb).
	splitSyncLoss = 0.12

	// slowSyncLoss is the pessimistic-synchronization model: slow
	// per-launch synchronization, as in early OpenCL drivers — the
	// regime the cited study measured.
	slowSyncLoss = 0.30

	// splitBoundary is the fractional extra memory traffic each
	// fragment moves for halo/boundary data it would not touch in a
	// whole-device run.
	splitBoundary = 0.20

	// splitPartitionCost is the one-time input-partitioning and
	// output-merge cost, as a fraction of the best single-device time.
	splitPartitionCost = 0.04
)

// splitTime returns the execution time of the program with fraction
// alpha of its work on the CPU and the rest on the GPU, both devices at
// their maximum frequency, fragments advancing phase by phase in
// lockstep (per-iteration barriers), including all split costs. The
// endpoints alpha=0 and alpha=1 are clean single-device runs with no
// split cost.
func splitTime(cfg *apu.Config, mem *memsys.Model, syncLoss float64, prog *kernelsim.Program, alpha float64) (units.Seconds, error) {
	if err := prog.Validate(); err != nil {
		return 0, err
	}
	if alpha < 0 || alpha > 1 {
		return 0, fmt.Errorf("exp: split alpha %v outside [0,1]", alpha)
	}
	fc := cfg.Freq(apu.CPU, cfg.MaxFreqIndex(apu.CPU))
	fg := cfg.Freq(apu.GPU, cfg.MaxFreqIndex(apu.GPU))
	if alpha == 0 {
		return prog.StandaloneTime(apu.GPU, fg, mem, 1), nil
	}
	if alpha == 1 {
		return prog.StandaloneTime(apu.CPU, fc, mem, 1), nil
	}

	rc := prog.PotentialRate(apu.CPU, fc)
	rg := prog.PotentialRate(apu.GPU, fg)
	total := 0.0
	for _, ph := range prog.Phases {
		work := float64(prog.Work) * ph.Frac
		bpo := ph.BytesPerOp * (1 + splitBoundary)
		grant := mem.Arbitrate(memsys.Demand{
			CPU:     units.GBps(rc * bpo),
			GPU:     units.GBps(rg * bpo),
			CPUSens: prog.CPUSens,
			GPUSens: prog.GPUSens,
		})
		rateC := kernelsim.RateGivenGrant(rc, bpo, grant.CPU)
		rateG := kernelsim.RateGivenGrant(rg, bpo, grant.GPU)
		// Barriered: the phase lasts as long as its slower fragment.
		tC := alpha * work / rateC
		tG := (1 - alpha) * work / rateG
		total += math.Max(tC, tG)
	}
	total *= 1 + syncLoss

	single := math.Min(
		float64(prog.StandaloneTime(apu.CPU, fc, mem, 1)),
		float64(prog.StandaloneTime(apu.GPU, fg, mem, 1)))
	total += splitPartitionCost * single
	return units.Seconds(total), nil
}

// SplitStudy is the outcome of a split evaluation for one program.
type SplitStudy struct {
	Name string

	// BestSingle is the better single-device time; BestSingleDev names
	// the device.
	BestSingle    units.Seconds
	BestSingleDev apu.Device

	// BestAlpha and BestSplit are the best work fraction and its time
	// (split costs included).
	BestAlpha float64
	BestSplit units.Seconds

	// Gain is BestSingle/BestSplit - 1: positive when splitting wins.
	Gain float64
}

// evaluateSplit scans alpha over a grid of steps and reports whether
// splitting the program ever beats the best single-device execution
// under the given sync loss.
func evaluateSplit(cfg *apu.Config, mem *memsys.Model, syncLoss float64, prog *kernelsim.Program, steps int) (*SplitStudy, error) {
	if steps < 2 {
		return nil, fmt.Errorf("exp: need at least 2 alpha steps")
	}
	cpuOnly, err := splitTime(cfg, mem, syncLoss, prog, 1)
	if err != nil {
		return nil, err
	}
	gpuOnly, err := splitTime(cfg, mem, syncLoss, prog, 0)
	if err != nil {
		return nil, err
	}
	st := &SplitStudy{Name: prog.Name, BestSingle: cpuOnly, BestSingleDev: apu.CPU, BestAlpha: 1}
	if gpuOnly < cpuOnly {
		st.BestSingle, st.BestSingleDev, st.BestAlpha = gpuOnly, apu.GPU, 0
	}
	st.BestSplit = st.BestSingle
	for i := 1; i < steps; i++ {
		alpha := float64(i) / float64(steps)
		t, err := splitTime(cfg, mem, syncLoss, prog, alpha)
		if err != nil {
			return nil, err
		}
		if t < st.BestSplit {
			st.BestSplit, st.BestAlpha = t, alpha
		}
	}
	st.Gain = float64(st.BestSingle)/float64(st.BestSplit) - 1
	return st, nil
}

// SplitResult is the kernel-splitting study.
type SplitResult struct {
	Rows []*SplitStudy
	// WinsDefault / WinsSlowSync count programs gaining >5% under the
	// default and the pessimistic-synchronization cost models.
	WinsDefault  int
	WinsSlowSync int
}

// Split evaluates the best work split of every benchmark against its
// best single-device run, under the default and the slow-sync cost
// models.
func (s *Suite) Split() (*SplitResult, error) {
	res := &SplitResult{}
	for _, name := range workload.Names() {
		prog, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		st, err := evaluateSplit(s.Cfg, s.Mem, splitSyncLoss, prog, 10)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, st)
		if st.Gain > 0.05 {
			res.WinsDefault++
		}
		slowSt, err := evaluateSplit(s.Cfg, s.Mem, slowSyncLoss, prog, 10)
		if err != nil {
			return nil, err
		}
		if slowSt.Gain > 0.05 {
			res.WinsSlowSync++
		}
	}
	return res, nil
}

// WriteText renders the study.
func (r *SplitResult) WriteText(w io.Writer) error {
	for _, st := range r.Rows {
		if _, err := fmt.Fprintf(w, "  %-14s single %7.2fs (%v)  best split %7.2fs @ alpha %.1f  gain %s\n",
			st.Name, float64(st.BestSingle), st.BestSingleDev,
			float64(st.BestSplit), st.BestAlpha, pct(st.Gain)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%d/%d programs gain >5%% with default costs; %d/%d under slow synchronization.\n"+
		"Splitting is program-dependent — whole-job co-scheduling is the safe general policy (section II).\n",
		r.WinsDefault, len(r.Rows), r.WinsSlowSync, len(r.Rows))
	return err
}
