package model

// The paper's controllable micro-kernel (section V.A) is the
// characterization's own stressor: a software kernel that applies a
// tunable amount of pressure to the shared memory system and runs on
// either device.
//
// The real kernel streams two input arrays, performs a register-only
// compute loop, and writes one output array; array sizes and loop trip
// counts set the memory demand. The analytic equivalent is a
// single-phase program whose bytes-per-op is chosen so that its
// unconstrained bandwidth demand at maximum frequency equals the target
// level. Lowering the frequency lowers the demand proportionally, just
// as it does for the real kernel.

import (
	"fmt"

	"corun/internal/apu"
	"corun/internal/kernelsim"
	"corun/internal/units"
	"corun/internal/workload"
)

// Latency sensitivities of the micro-kernel. The CPU side is a friendly
// streaming loop; the GPU side is penalized by the immature open-source
// driver's scheduling, matching the broad 20-40% degradation band of
// Figure 6.
const (
	microCPUSens = 0.25
	microGPUSens = 0.30
)

// microRefRate is the micro-kernel's stall-free execution rate in
// Gops/s at maximum frequency on either device; the bytes-per-op for a
// target bandwidth follows from it.
const microRefRate = 7.2

// microKernel builds a micro-benchmark program whose unconstrained
// memory demand at the machine's maximum frequency equals target GB/s
// on both devices. A zero target yields a pure compute kernel.
func microKernel(target units.GBps, cfg *apu.Config) (*kernelsim.Program, error) {
	if target < 0 {
		return nil, fmt.Errorf("model: negative micro-kernel target bandwidth %v", target)
	}
	maxCPU := float64(cfg.Freq(apu.CPU, cfg.MaxFreqIndex(apu.CPU)))
	maxGPU := float64(cfg.Freq(apu.GPU, cfg.MaxFreqIndex(apu.GPU)))
	p := &kernelsim.Program{
		Name:    fmt.Sprintf("micro-%.1fgbps", float64(target)),
		Work:    20,
		CPUEff:  microRefRate / maxCPU,
		GPUEff:  microRefRate / maxGPU,
		CPUSens: microCPUSens,
		GPUSens: microGPUSens,
		Phases:  []kernelsim.Phase{{Frac: 1, BytesPerOp: float64(target) / microRefRate}},
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// microInstance wraps microKernel into a workload instance ready for
// simulation.
func microInstance(target units.GBps, cfg *apu.Config, id int) (*workload.Instance, error) {
	p, err := microKernel(target, cfg)
	if err != nil {
		return nil, err
	}
	return &workload.Instance{ID: id, Prog: p, Scale: 1, Label: p.Name}, nil
}

// Levels returns the paper's characterization grid: n bandwidth
// settings evenly covering [0, max] GB/s (the paper uses 11 settings
// over 0-11 GB/s, CharacterizeOptions' default).
func Levels(n int, max units.GBps) []units.GBps {
	if n < 2 {
		return []units.GBps{0}
	}
	out := make([]units.GBps, n)
	step := float64(max) / float64(n-1)
	for i := range out {
		out[i] = units.GBps(step * float64(i))
	}
	return out
}
