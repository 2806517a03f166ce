package sim

import (
	"corun/internal/apu"
	"corun/internal/units"
)

// Bias selects which device a reactive governor sacrifices first when
// the power cap is exceeded (section VI.A of the paper).
type Bias int

// Governor biases.
const (
	// GPUBiased keeps the GPU fast: it lowers the CPU frequency first
	// and raises the GPU frequency first.
	GPUBiased Bias = iota
	// CPUBiased is the opposite policy.
	CPUBiased
)

// String implements fmt.Stringer.
func (b Bias) String() string {
	if b == GPUBiased {
		return "GPU-biased"
	}
	return "CPU-biased"
}

// BiasedGovernor is the paper's reactive frequency controller for the
// Random and Default baselines: it has no model, only the measured
// power, and steps one DVFS level per sample tick.
type BiasedGovernor struct {
	// Cap is the package power cap to enforce.
	Cap units.Watts
	// Domains are optional RAPL-style per-plane caps enforced on top
	// of Cap: PP0 meters the CPU cores, PP1 the iGPU. Zero planes are
	// unenforced.
	Domains apu.DomainCaps
	// Bias picks the sacrificial device.
	Bias Bias
}

// Adjust implements Governor.
func (g *BiasedGovernor) Adjust(power units.Watts, view *View, cfg *apu.Config) (int, int) {
	cf, gf := view.CPUFreq, view.GPUFreq
	if g.Cap <= 0 && !g.Domains.Any() {
		return cf, gf
	}
	// Plane overdraws first: a plane cap meters exactly one device, so
	// the only remedy is stepping that device down — there is no
	// cross-device trade like the package cap allows.
	lowered := false
	if g.Domains.PP0 > 0 && view.PP0 > g.Domains.PP0 && cf > 0 {
		cf--
		lowered = true
	}
	if g.Domains.PP1 > 0 && view.PP1 > g.Domains.PP1 && gf > 0 {
		gf--
		lowered = true
	}
	if lowered {
		return cf, gf
	}
	if g.Cap > 0 && power > g.Cap {
		return g.lower(power, cf, gf, cfg)
	}
	return g.raise(power, view, cf, gf, cfg)
}

// lower steps frequencies down until the estimated power fits under the
// cap (or both devices hit their floors), sacrificing the bias's
// non-preferred device first. The per-step saving is estimated from the
// full-activity power curve, which overestimates savings slightly — the
// residual is the small cap excursion the paper observes in Figure 9.
func (g *BiasedGovernor) lower(power units.Watts, cf, gf int, cfg *apu.Config) (int, int) {
	est := power
	stepDown := func(dev apu.Device, idx int) (int, bool) {
		if idx <= 0 {
			return idx, false
		}
		est -= cfg.DynPower(dev, idx) - cfg.DynPower(dev, idx-1)
		return idx - 1, true
	}
	for est > g.Cap {
		var ok bool
		if g.Bias == GPUBiased {
			if cf, ok = stepDown(apu.CPU, cf); ok {
				continue
			}
			if gf, ok = stepDown(apu.GPU, gf); ok {
				continue
			}
		} else {
			if gf, ok = stepDown(apu.GPU, gf); ok {
				continue
			}
			if cf, ok = stepDown(apu.CPU, cf); ok {
				continue
			}
		}
		break // both at floor
	}
	return cf, gf
}

// raise steps frequencies up when the measured power plus the step's
// estimated cost still fits every cap with that cost again to spare. The
// policy "always raises the GPU's frequency if it's not the highest
// yet" (symmetrically for CPU-biased): the non-preferred device is
// only considered once the preferred one sits at its maximum level.
func (g *BiasedGovernor) raise(power units.Watts, view *View, cf, gf int, cfg *apu.Config) (int, int) {
	fits := func(dev apu.Device, delta units.Watts) bool {
		// The headroom is one DVFS step's estimated power of slack
		// beyond the step itself. The raise estimate undercounts the
		// true cost (activity scaling and the host thread ride on the
		// raised clock), so raising whenever power+delta fit would land
		// above the cap and be lowered right back — a raise/lower flap
		// every governor tick.
		if g.Cap > 0 && power+delta+delta > g.Cap {
			return false
		}
		planeCap, planeW := g.Domains.PP0, view.PP0
		if dev == apu.GPU {
			planeCap, planeW = g.Domains.PP1, view.PP1
		}
		if planeCap > 0 && planeW+delta+delta > planeCap {
			return false
		}
		return true
	}
	if g.Bias == GPUBiased {
		if gf < cfg.MaxFreqIndex(apu.GPU) {
			if fits(apu.GPU, cfg.DynPower(apu.GPU, gf+1)-cfg.DynPower(apu.GPU, gf)) {
				return cf, gf + 1
			}
			return cf, gf
		}
		if cf < cfg.MaxFreqIndex(apu.CPU) && fits(apu.CPU, cfg.DynPower(apu.CPU, cf+1)-cfg.DynPower(apu.CPU, cf)) {
			return cf + 1, gf
		}
		return cf, gf
	}
	if cf < cfg.MaxFreqIndex(apu.CPU) {
		if fits(apu.CPU, cfg.DynPower(apu.CPU, cf+1)-cfg.DynPower(apu.CPU, cf)) {
			return cf + 1, gf
		}
		return cf, gf
	}
	if gf < cfg.MaxFreqIndex(apu.GPU) && fits(apu.GPU, cfg.DynPower(apu.GPU, gf+1)-cfg.DynPower(apu.GPU, gf)) {
		return cf, gf + 1
	}
	return cf, gf
}
