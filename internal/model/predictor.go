package model

import (
	"fmt"
	"sync"

	"corun/internal/apu"
	"corun/internal/profile"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// Predictor combines the micro-benchmark characterization with the
// offline standalone profiles into the co-run performance and power
// oracle the scheduling algorithms consume.
//
// It implements the core package's Oracle interface.
type Predictor struct {
	Char *Characterization
	Prof *profile.Standalone
}

// NewPredictor validates and assembles a predictor.
func NewPredictor(char *Characterization, prof *profile.Standalone) (*Predictor, error) {
	if char == nil || prof == nil {
		return nil, fmt.Errorf("model: nil characterization or profile")
	}
	if len(char.Surfaces) == 0 {
		return nil, fmt.Errorf("model: empty characterization")
	}
	return &Predictor{Char: char, Prof: prof}, nil
}

// NumJobs returns the number of jobs in the profiled batch.
func (p *Predictor) NumJobs() int { return p.Prof.NumJobs() }

// StandaloneTime returns the profiled solo time of job i on device d at
// frequency level f.
func (p *Predictor) StandaloneTime(i int, d apu.Device, f int) units.Seconds {
	return p.Prof.Time(i, d, f)
}

// StandalonePower returns the profiled solo package power of job i on
// device d at level f.
func (p *Predictor) StandalonePower(i int, d apu.Device, f int) units.Watts {
	return p.Prof.Power(i, d, f)
}

// Degradation predicts the time degradation of job i running on device
// dev at level f while job j runs on the opposite device at level g.
func (p *Predictor) Degradation(i int, dev apu.Device, f, j, g int) float64 {
	var cpuBW, gpuBW float64
	var cpuGHz, gpuGHz float64
	cfg := p.Prof.Cfg
	if dev == apu.CPU {
		cpuBW = float64(p.Prof.Bandwidth(i, apu.CPU, f))
		gpuBW = float64(p.Prof.Bandwidth(j, apu.GPU, g))
		cpuGHz = float64(cfg.Freq(apu.CPU, f))
		gpuGHz = float64(cfg.Freq(apu.GPU, g))
	} else {
		gpuBW = float64(p.Prof.Bandwidth(i, apu.GPU, f))
		cpuBW = float64(p.Prof.Bandwidth(j, apu.CPU, g))
		gpuGHz = float64(cfg.Freq(apu.GPU, f))
		cpuGHz = float64(cfg.Freq(apu.CPU, g))
	}
	d := p.Char.Degradation(dev, cpuBW, gpuBW, cpuGHz, gpuGHz)
	if d < 0 {
		return 0
	}
	return d
}

// CoRunPower predicts the package power of job i on the CPU at level f
// co-running with job j on the GPU at level g, as the paper does: the
// sum of the standalone powers at the same frequencies (idle counted
// once). Either job index may be negative to denote an idle device.
func (p *Predictor) CoRunPower(i, f, j, g int) units.Watts {
	return coRunPower(p.Prof, i, f, j, g)
}

// coRunPower is the paper's power model over a batch's standalone
// profiles: the sum of the two solo package powers with the idle power
// counted once; a negative job index denotes an idle device. The
// planner asks it of every operating point of every pair, so it is
// shaped to fit the inliner's budget inside its two callers.
func coRunPower(prof *profile.Standalone, i, f, j, g int) units.Watts {
	if i < 0 {
		if j < 0 {
			return prof.Cfg.IdlePower
		}
		return prof.Power(j, apu.GPU, g)
	}
	cpu := prof.Power(i, apu.CPU, f)
	if j < 0 {
		return cpu
	}
	return cpu + prof.Power(j, apu.GPU, g) - prof.Cfg.IdlePower
}

// GroundTruthOracle answers the same queries as Predictor but by
// actually measuring pairwise co-runs on the simulator (memoized). It
// is the "perfect model" arm of the model-vs-oracle ablation: feeding
// it to the scheduler isolates scheduling error from prediction error.
type GroundTruthOracle struct {
	Prof  *profile.Standalone
	Batch []*workload.Instance

	mu   sync.Mutex
	memo map[gtKey]float64
}

type gtKey struct {
	i   int
	dev apu.Device
	f   int
	j   int
	g   int
}

// NewGroundTruthOracle builds the oracle over a profiled batch.
func NewGroundTruthOracle(prof *profile.Standalone, batch []*workload.Instance) (*GroundTruthOracle, error) {
	if prof == nil {
		return nil, fmt.Errorf("model: nil profile")
	}
	if len(batch) != prof.NumJobs() {
		return nil, fmt.Errorf("model: batch size %d does not match profile %d", len(batch), prof.NumJobs())
	}
	return &GroundTruthOracle{Prof: prof, Batch: batch, memo: map[gtKey]float64{}}, nil
}

// NumJobs returns the batch size.
func (o *GroundTruthOracle) NumJobs() int { return o.Prof.NumJobs() }

// StandaloneTime returns the profiled solo time.
func (o *GroundTruthOracle) StandaloneTime(i int, d apu.Device, f int) units.Seconds {
	return o.Prof.Time(i, d, f)
}

// StandalonePower returns the profiled solo power.
func (o *GroundTruthOracle) StandalonePower(i int, d apu.Device, f int) units.Watts {
	return o.Prof.Power(i, d, f)
}

// Degradation measures the true degradation by simulation.
func (o *GroundTruthOracle) Degradation(i int, dev apu.Device, f, j, g int) float64 {
	key := gtKey{i, dev, f, j, g}
	o.mu.Lock()
	if v, ok := o.memo[key]; ok {
		o.mu.Unlock()
		return v
	}
	o.mu.Unlock()
	cf, gf := f, g
	if dev == apu.GPU {
		cf, gf = g, f
	}
	val := 10.0 // maximal pessimism when measurement fails
	res, err := sim.CoRun(sim.Options{Cfg: o.Prof.Cfg, Mem: o.Prof.Mem},
		o.Batch[i], dev, o.Batch[j], cf, gf)
	if err == nil {
		val = res.Degradation
	}
	o.mu.Lock()
	o.memo[key] = val
	o.mu.Unlock()
	return val
}

// CoRunPower uses the same standalone-sum estimate as the Predictor
// (the paper's power model is already near-exact).
func (o *GroundTruthOracle) CoRunPower(i, f, j, g int) units.Watts {
	return coRunPower(o.Prof, i, f, j, g)
}
