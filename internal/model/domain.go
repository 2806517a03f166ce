package model

import "corun/internal/apu"

// CoRunSplit breaks the standalone-sum power model down by plane. The
// profile's conventions (see profile.standalonePower): a CPU solo
// measurement is idle + CPU activity; a GPU solo measurement is idle +
// GPU activity + the host thread at the lowest CPU operating point.
// Subtracting those known terms reassigns every watt to its plane — the
// host thread burns CPU cycles, so PP0 meters it — and the plane sums
// rebuild CoRunPower exactly. The ground-truth arm uses it too: the
// paper's power model is near-exact, so that arm only re-measures
// degradation.
func (p profiled) CoRunSplit(i, f, j, g int) apu.PowerSplit {
	cfg := p.Prof.Cfg
	idle := cfg.IdlePower
	s := apu.PowerSplit{Uncore: idle}
	if i >= 0 {
		s.PP0 += p.Prof.Power(i, apu.CPU, f) - idle
	}
	if j >= 0 {
		host := cfg.HostPower(0)
		s.PP1 += p.Prof.Power(j, apu.GPU, g) - idle - host
		s.PP0 += host
	}
	return s
}
