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

// String implements fmt.Stringer: the preferred device, last in the
// bias's order, names it.
func (b Bias) String() string {
	return [apu.NumDevices]string{apu.CPU: "CPU-biased", apu.GPU: "GPU-biased"}[b.order()[apu.NumDevices-1]]
}

// order returns the devices in the order the bias gives them up: the
// sacrificial device first. It is the one place that reads a Bias.
func (b Bias) order() *[apu.NumDevices]apu.Device {
	if b == GPUBiased {
		return &cpuFirst
	}
	return &gpuFirst
}

// The two device orders, named by the device that gives way first.
// order hands out pointers to them, so nothing writes them.
var (
	cpuFirst = [apu.NumDevices]apu.Device{apu.CPU, apu.GPU}
	gpuFirst = [apu.NumDevices]apu.Device{apu.GPU, apu.CPU}
)

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
func (g *BiasedGovernor) Adjust(power units.Watts, view *View, cfg *apu.Config) [apu.NumDevices]int {
	lv := view.Freq
	if g.Cap <= 0 && !g.Domains.Any() {
		return lv
	}
	// Plane overdraws first: a plane cap meters exactly one device, so
	// the only remedy is stepping that device down — there is no
	// cross-device trade like the package cap allows.
	lowered := false
	for d := range lv {
		if g.Domains.Over(apu.Device(d), view.Plane[d]) && lv[d] > 0 {
			lv[d]--
			lowered = true
		}
	}
	if lowered {
		return lv
	}
	if g.Cap > 0 && power > g.Cap {
		g.lower(power, &lv, cfg)
	} else {
		g.raise(power, view, &lv, cfg)
	}
	return lv
}

// lower steps levels down until the estimated power fits under the cap
// (or both devices hit their floors), walking the bias's order forwards:
// the sacrificial device gives way first. The per-step saving is
// estimated from the full-activity power curve, which overestimates
// savings slightly — the residual is the small cap excursion the paper
// observes in Figure 9. Each level's power is looked up once: the level
// stepped down to is the next step's upper end.
func (g *BiasedGovernor) lower(power units.Watts, lv *[apu.NumDevices]int, cfg *apu.Config) {
	est := power
	for _, d := range g.Bias.order() {
		if !(est > g.Cap) {
			return
		}
		for p := cfg.DynPower(d, lv[d]); est > g.Cap && lv[d] > 0; lv[d]-- {
			below := cfg.DynPower(d, lv[d]-1)
			est, p = est-(p-below), below
		}
	}
}

// raise steps one level up when the measured power plus the step's
// estimated cost still fits every cap with that cost again to spare,
// walking the bias's order backwards. The policy "always raises the
// GPU's frequency if it's not the highest yet" (symmetrically for
// CPU-biased): the sacrificial device is only considered once the
// preferred one sits at its maximum level.
func (g *BiasedGovernor) raise(power units.Watts, view *View, lv *[apu.NumDevices]int, cfg *apu.Config) {
	order := g.Bias.order()
	for i := len(order) - 1; i >= 0; i-- {
		d := order[i]
		if lv[d] >= cfg.MaxFreqIndex(d) {
			continue
		}
		// The headroom is one DVFS step's estimated power of slack
		// beyond the step itself. The raise estimate undercounts the
		// true cost (activity scaling and the host thread ride on the
		// raised clock), so raising whenever power+delta fit would land
		// above the cap and be lowered right back — a raise/lower flap
		// every governor tick.
		delta := cfg.DynPower(d, lv[d]+1) - cfg.DynPower(d, lv[d])
		if !(g.Cap > 0 && power+delta+delta > g.Cap) && !g.Domains.Over(d, view.Plane[d]+delta+delta) {
			lv[d]++
		}
		return
	}
}
