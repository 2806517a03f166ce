// Package split implements the fine-grained alternative the paper
// scopes out in section II: splitting a single kernel's work across the
// CPU and the GPU so both devices execute parts of one job
// concurrently.
//
// The paper cites prior work (Zhang et al., MASCOTS'15, "To co-run or
// not to co-run") finding that "due to the complexity in data
// partitioning and communications, such partitioning often yields even
// worse performance than using a single processor" on integrated
// architectures. This package makes that trade-off measurable: a split
// job becomes two fragments that
//
//   - contend for the shared memory system (both sides of the same
//     die pull from one controller);
//   - exchange boundary data every iteration, inflating each
//     fragment's memory intensity;
//   - synchronize at every kernel launch, so within each phase the
//     slower fragment gates progress and a residual sync loss applies
//     (SyncLoss);
//   - pay a one-time partition/merge cost.
//
// The outcome per program answers "to split or not to split": balanced
// compute-bound kernels can win, memory-bound or strongly device-
// preferred ones rarely do — which is why the paper schedules whole
// jobs.
package split

import (
	"fmt"
	"math"

	"corun/internal/apu"
	"corun/internal/kernelsim"
	"corun/internal/memsys"
	"corun/internal/units"
)

// Cost parameters, sized to the overheads the cited study attributes
// to manual CPU+GPU work partitioning on integrated parts.
const (
	// DefaultSyncLoss is the residual per-iteration barrier loss
	// (launch overhead, imbalance jitter the static partition cannot
	// absorb).
	DefaultSyncLoss = 0.12

	// boundary is the fractional extra memory traffic each fragment
	// moves for halo/boundary data it would not touch in a
	// whole-device run.
	boundary = 0.20

	// partitionCost is the one-time input-partitioning and
	// output-merge cost, as a fraction of the best single-device time.
	partitionCost = 0.04
)

// Options configures a split evaluation. Both devices run at their
// maximum frequency.
type Options struct {
	Cfg *apu.Config
	Mem *memsys.Model

	// SyncLoss overrides DefaultSyncLoss; negative and non-finite values
	// are rejected, zero selects the default.
	SyncLoss float64
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.Cfg == nil || out.Mem == nil {
		return out, fmt.Errorf("split: nil machine or memory model")
	}
	if err := units.CheckNonNegative("SyncLoss", out.SyncLoss); err != nil {
		return out, fmt.Errorf("split: %w", err)
	}
	if out.SyncLoss == 0 {
		out.SyncLoss = DefaultSyncLoss
	}
	return out, nil
}

// Time returns the execution time of the program with fraction alpha
// of its work on the CPU and the rest on the GPU, fragments advancing
// phase by phase in lockstep (per-iteration barriers), including all
// split costs. The endpoints alpha=0 and alpha=1 are clean
// single-device runs with no split cost.
func Time(opts Options, prog *kernelsim.Program, scale, alpha float64) (units.Seconds, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return 0, err
	}
	if err := prog.Validate(); err != nil {
		return 0, err
	}
	if scale <= 0 {
		return 0, fmt.Errorf("split: non-positive scale %v", scale)
	}
	if alpha < 0 || alpha > 1 {
		return 0, fmt.Errorf("split: alpha %v outside [0,1]", alpha)
	}
	fc := o.Cfg.Freq(apu.CPU, o.Cfg.MaxFreqIndex(apu.CPU))
	fg := o.Cfg.Freq(apu.GPU, o.Cfg.MaxFreqIndex(apu.GPU))
	if alpha == 0 {
		return prog.StandaloneTime(apu.GPU, fg, o.Mem, scale), nil
	}
	if alpha == 1 {
		return prog.StandaloneTime(apu.CPU, fc, o.Mem, scale), nil
	}

	rc := prog.PotentialRate(apu.CPU, fc)
	rg := prog.PotentialRate(apu.GPU, fg)
	total := 0.0
	for _, ph := range prog.Phases {
		work := float64(prog.Work) * scale * ph.Frac
		bpo := ph.BytesPerOp * (1 + boundary)
		grant := o.Mem.Arbitrate(memsys.Demand{
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
	total *= 1 + o.SyncLoss

	single := math.Min(
		float64(prog.StandaloneTime(apu.CPU, fc, o.Mem, scale)),
		float64(prog.StandaloneTime(apu.GPU, fg, o.Mem, scale)))
	total += partitionCost * single
	return units.Seconds(total), nil
}

// Study is the outcome of a split evaluation for one program.
type Study struct {
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

// Evaluate scans alpha over a grid and reports whether splitting the
// program ever beats the best single-device execution.
func Evaluate(opts Options, prog *kernelsim.Program, scale float64, steps int) (*Study, error) {
	if steps < 2 {
		return nil, fmt.Errorf("split: need at least 2 alpha steps")
	}
	cpuOnly, err := Time(opts, prog, scale, 1)
	if err != nil {
		return nil, err
	}
	gpuOnly, err := Time(opts, prog, scale, 0)
	if err != nil {
		return nil, err
	}
	st := &Study{Name: prog.Name, BestSingle: cpuOnly, BestSingleDev: apu.CPU, BestAlpha: 1}
	if gpuOnly < cpuOnly {
		st.BestSingle, st.BestSingleDev, st.BestAlpha = gpuOnly, apu.GPU, 0
	}
	st.BestSplit = st.BestSingle
	for i := 1; i < steps; i++ {
		alpha := float64(i) / float64(steps)
		t, err := Time(opts, prog, scale, alpha)
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
