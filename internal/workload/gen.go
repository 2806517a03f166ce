package workload

import (
	"fmt"
	"math/rand"

	"corun/internal/kernelsim"
)

// gpuPreferredFrac is the approximate fraction of generated programs
// that run faster on the GPU (the Rodinia batch has 6/8); the rest are
// CPU-leaning or balanced.
const gpuPreferredFrac = 0.7

// GenOptions parameterizes the synthetic workload generator.
type GenOptions struct {
	// N is the number of instances to generate.
	N int
	// Seed drives the generator deterministically.
	Seed int64
}

// Generate produces a batch of synthetic programs with plausible
// parameter ranges: total work sized for tens of simulated seconds,
// device efficiencies spanning 2-3x preferences in either direction,
// one to three phases mixing compute and memory intensity, and latency
// sensitivities in the measured range of the calibrated benchmarks.
// It is the robustness-study workload source: results on the eight
// calibrated programs generalize only if they survive random batches.
func Generate(opts GenOptions) ([]*Instance, error) {
	if opts.N <= 0 {
		return nil, fmt.Errorf("workload: Generate needs N > 0, got %d", opts.N)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	out := make([]*Instance, opts.N)
	for i := range out {
		p, err := genProgram(rng, i)
		if err != nil {
			return nil, err
		}
		out[i] = &Instance{ID: i, Prog: p, Scale: 1, Label: p.Name}
	}
	return out, nil
}

func genProgram(rng *rand.Rand, idx int) (*kernelsim.Program, error) {
	// Target standalone times in the 20-80 s range on the preferred
	// device at max frequency, like the paper's inputs ("large enough
	// ... at least 20 seconds").
	targetTime := 20 + 60*rng.Float64()
	work := 100.0

	// Preference: the preferred device's rate fixes its efficiency;
	// the other device is 1.3-3x slower (or within 20% for balanced
	// programs).
	prefGPU := rng.Float64() < gpuPreferredFrac
	ratio := 1.3 + 1.7*rng.Float64()
	if rng.Float64() < 0.15 {
		ratio = 1.0 + 0.2*rng.Float64() // balanced
	}
	var cpuEff, gpuEff float64
	if prefGPU {
		gpuEff = work / targetTime / 1.25
		cpuEff = work / (targetTime * ratio) / 3.6
	} else {
		cpuEff = work / targetTime / 3.6
		gpuEff = work / (targetTime * ratio) / 1.25
	}

	// Phases: 1-3, memory intensity drawn so that peak demand on the
	// preferred device spans quiet (1 GB/s) to heavy (9 GB/s).
	nPhases := 1 + rng.Intn(3)
	fracs := make([]float64, nPhases)
	sum := 0.0
	for i := range fracs {
		fracs[i] = 0.2 + rng.Float64()
		sum += fracs[i]
	}
	prefRate := gpuEff * 1.25
	if !prefGPU {
		prefRate = cpuEff * 3.6
	}
	phases := make([]kernelsim.Phase, nPhases)
	for i := range phases {
		targetBW := 1 + 8*rng.Float64()
		phases[i] = kernelsim.Phase{
			Frac:       fracs[i] / sum,
			BytesPerOp: targetBW / prefRate,
		}
	}

	p := &kernelsim.Program{
		Name:    fmt.Sprintf("synth%02d", idx),
		Work:    100,
		CPUEff:  cpuEff,
		GPUEff:  gpuEff,
		CPUSens: 0.15 + 0.35*rng.Float64(),
		GPUSens: 0.03 + 0.17*rng.Float64(),
		Phases:  phases,
	}
	// Occasionally generate a latency-sensitive outlier like dwt2d.
	if rng.Float64() < 0.1 {
		p.CPUSens = 0.9 + 0.6*rng.Float64()
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
