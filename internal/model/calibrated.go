package model

import (
	"fmt"
	"sync/atomic"

	"corun/internal/apu"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// probeTarget is the micro-kernel bandwidth level of the reference
// co-runner: a demanding but not saturating stressor. maxScale clamps
// the learned corrections to [1/maxScale, maxScale].
const (
	probeTarget units.GBps = 8
	maxScale               = 4.0 // a float constant: 1/maxScale is 0.25, not 0
)

// NewCalibratedPredictor returns a predictor over base's rows whose
// degradations carry per-(job, device) correction factors learned from
// a handful of real probe co-runs on the ground-truth simulator, one
// per (job, device) — 2N short runs, far below the O(N^2 K^2)
// exhaustive profiling the model exists to avoid. batch is the
// instance set base's profile was collected for.
//
// The base model's dominant error is structural: it cannot see a
// program's memory-latency sensitivity, only its bandwidth (the dwt2d
// tail in Figure 7). One measured co-run per job and device against a
// fixed reference stressor reveals how much that job's real degradation
// deviates from the bandwidth-only prediction; scaling subsequent
// predictions by that ratio is exactly the kind of lightweight online
// estimation the paper's section V.C anticipates ("existing lightweight
// methods can be used to estimate those metrics on the fly").
func NewCalibratedPredictor(base *Predictor, batch []*workload.Instance) (*Predictor, error) {
	if base == nil {
		return nil, fmt.Errorf("model: nil base predictor")
	}
	if len(batch) != base.NumJobs() {
		return nil, fmt.Errorf("model: batch size %d does not match profile %d", len(batch), base.NumJobs())
	}
	cfg, mem := base.Prof.Cfg, base.Prof.Mem

	cmax := cfg.MaxFreqIndex(apu.CPU)
	gmax := cfg.MaxFreqIndex(apu.GPU)
	scale := make([][]float64, base.NumJobs())

	// The reference stressor runs on the opposite device; its
	// standalone bandwidth indexes the prediction surface.
	probeProg, err := microKernel(probeTarget, cfg)
	if err != nil {
		return nil, err
	}
	probeBW := map[apu.Device]float64{
		apu.CPU: float64(probeProg.AvgStandaloneBandwidth(apu.CPU, cfg.Freq(apu.CPU, cmax), mem)),
		apu.GPU: float64(probeProg.AvgStandaloneBandwidth(apu.GPU, cfg.Freq(apu.GPU, gmax), mem)),
	}

	for i, inst := range batch {
		scale[i] = []float64{1, 1}
		for d := apu.CPU; d <= apu.GPU; d++ {
			fSelf, fOther := cmax, gmax
			if d == apu.GPU {
				fSelf, fOther = gmax, cmax
			}
			probe := &workload.Instance{ID: 1, Prog: probeProg, Scale: 1, Label: probeProg.Name}
			cf, gf := fSelf, fOther
			if d == apu.GPU {
				cf, gf = fOther, fSelf
			}
			meas, err := sim.CoRun(sim.Options{Cfg: cfg, Mem: mem}, inst, d, probe, cf, gf)
			if err != nil {
				return nil, err
			}
			// Predict the same configuration with the base model: job
			// bandwidth from the profile, probe bandwidth from its own
			// standalone profile.
			var cpuBW, gpuBW float64
			if d == apu.CPU {
				cpuBW = float64(base.Prof.Bandwidth(i, apu.CPU, fSelf))
				gpuBW = probeBW[apu.GPU]
			} else {
				gpuBW = float64(base.Prof.Bandwidth(i, apu.GPU, fSelf))
				cpuBW = probeBW[apu.CPU]
			}
			pred := base.Char.Degradation(d, cpuBW, gpuBW,
				float64(cfg.Freq(apu.CPU, cf)), float64(cfg.Freq(apu.GPU, gf)))
			if pred > 1e-3 && meas.Degradation > 0 {
				scale[i][d] = units.Clamp(meas.Degradation/pred, 1/maxScale, maxScale)
			}
		}
	}
	// A fresh predictor rather than a copy of base: the table addresses
	// and counters are per predictor.
	n := base.NumJobs()
	return &Predictor{profiled: base.profiled, Char: base.Char, rows: base.rows, scale: scale,
		tabs: make([]atomic.Pointer[pairTable], n*n)}, nil
}
