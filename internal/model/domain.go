package model

import (
	"corun/internal/apu"
	"corun/internal/profile"
)

// profileSplit breaks the standalone-sum power model down by plane.
// The profile's conventions (see profile.standalonePower): a CPU solo
// measurement is idle + CPU activity; a GPU solo measurement is idle +
// GPU activity + the host thread at the lowest CPU operating point.
// Subtracting those known terms reassigns every watt to its plane —
// the host thread burns CPU cycles, so PP0 meters it — and the plane
// sums rebuild CoRunPower exactly.
func profileSplit(prof *profile.Standalone, i, f, j, g int) apu.PowerSplit {
	cfg := prof.Cfg
	idle := cfg.IdlePower
	s := apu.PowerSplit{Uncore: idle}
	if i >= 0 {
		s.PP0 += prof.Power(i, apu.CPU, f) - idle
	}
	if j >= 0 {
		host := cfg.HostPower(0)
		s.PP1 += prof.Power(j, apu.GPU, g) - idle - host
		s.PP0 += host
	}
	return s
}

// CoRunSplit implements Oracle over the standalone profiles.
func (p *Predictor) CoRunSplit(i, f, j, g int) apu.PowerSplit {
	return profileSplit(p.Prof, i, f, j, g)
}

// CoRunSplit implements Oracle; like CoRunPower it uses the
// standalone-sum model (the paper's power model is near-exact, so the
// ground-truth arm only re-measures degradation).
func (o *GroundTruthOracle) CoRunSplit(i, f, j, g int) apu.PowerSplit {
	return profileSplit(o.Prof, i, f, j, g)
}

// CoRunSplit delegates to the base oracle: plane splits are two table
// reads, nothing worth memoizing.
func (c *CachedPredictor) CoRunSplit(i, f, j, g int) apu.PowerSplit {
	return c.base.CoRunSplit(i, f, j, g)
}
