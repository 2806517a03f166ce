package model

import (
	"fmt"

	"corun/internal/apu"
	"corun/internal/microbench"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// CalibratedPredictor wraps the staged-interpolation Predictor with
// per-(job, device) correction factors learned from a handful of real
// probe co-runs.
//
// The base model's dominant error is structural: it cannot see a
// program's memory-latency sensitivity, only its bandwidth (the dwt2d
// tail in Figure 7). One measured co-run per job and device against a
// fixed reference stressor reveals how much that job's real degradation
// deviates from the bandwidth-only prediction; scaling subsequent
// predictions by that ratio is exactly the kind of lightweight online
// estimation the paper's section V.C anticipates ("existing lightweight
// methods can be used to estimate those metrics on the fly").
type CalibratedPredictor struct {
	*Predictor

	// scale[i][d] multiplies predicted degradations of job i on device
	// d; 1.0 means uncorrected.
	scale [][]float64
}

// CalibrateOptions configures the probe pass.
type CalibrateOptions struct {
	// Batch is the instance set the profile was collected for.
	Batch []*workload.Instance
}

// probeTarget is the micro-kernel bandwidth level of the reference
// co-runner: a demanding but not saturating stressor. maxScale clamps
// the learned corrections to [1/maxScale, maxScale].
const (
	probeTarget units.GBps = 8
	maxScale               = 4.0 // a float constant: 1/maxScale is 0.25, not 0
)

// NewCalibratedPredictor measures one probe co-run per (job, device)
// on the ground-truth simulator and fits the correction factors. The
// probe cost is 2N short runs — far below the O(N^2 K^2) exhaustive
// profiling the model exists to avoid.
func NewCalibratedPredictor(base *Predictor, opts CalibrateOptions) (*CalibratedPredictor, error) {
	if base == nil {
		return nil, fmt.Errorf("model: nil base predictor")
	}
	if len(opts.Batch) != base.NumJobs() {
		return nil, fmt.Errorf("model: batch size %d does not match profile %d", len(opts.Batch), base.NumJobs())
	}
	cfg, mem := base.Prof.Cfg, base.Prof.Mem

	cmax := cfg.MaxFreqIndex(apu.CPU)
	gmax := cfg.MaxFreqIndex(apu.GPU)
	cp := &CalibratedPredictor{Predictor: base}
	cp.scale = make([][]float64, base.NumJobs())

	// The reference stressor runs on the opposite device; its
	// standalone bandwidth indexes the prediction surface.
	probeProg, err := microbench.Kernel(probeTarget, cfg)
	if err != nil {
		return nil, err
	}
	probeBW := map[apu.Device]float64{
		apu.CPU: float64(probeProg.AvgStandaloneBandwidth(apu.CPU, cfg.Freq(apu.CPU, cmax), mem)),
		apu.GPU: float64(probeProg.AvgStandaloneBandwidth(apu.GPU, cfg.Freq(apu.GPU, gmax), mem)),
	}

	for i, inst := range opts.Batch {
		cp.scale[i] = []float64{1, 1}
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
				cp.scale[i][d] = units.Clamp(meas.Degradation/pred, 1/maxScale, maxScale)
			}
		}
	}
	return cp, nil
}

// Degradation applies the learned correction on top of the base model.
func (cp *CalibratedPredictor) Degradation(i int, dev apu.Device, f, j, g int) float64 {
	d := cp.Predictor.Degradation(i, dev, f, j, g)
	return d * cp.scale[i][dev]
}

// Scale exposes the learned correction of job i on device d (for
// reports and tests).
func (cp *CalibratedPredictor) Scale(i int, d apu.Device) float64 { return cp.scale[i][d] }
