package apu

import (
	"fmt"

	"corun/internal/units"
)

// DomainCaps are the RAPL-style per-plane power limits that sit under
// the package cap: PP0 meters the CPU cores, PP1 the integrated GPU, and
// neither meters the uncore. Zero (or negative) means the plane is
// uncapped. The package limit is not one of them: every layer takes it
// as its own argument (corun.WithPowerCap, corund -cap, Context.Cap).
type DomainCaps struct {
	PP0 units.Watts `json:"pp0_watts,omitempty"`
	PP1 units.Watts `json:"pp1_watts,omitempty"`
}

// Any reports whether at least one plane is capped.
func (dc DomainCaps) Any() bool { return dc.PP0 > 0 || dc.PP1 > 0 }

// Over reports whether w is over the cap of the plane that meters
// device d — PP0 for the CPU, PP1 for the GPU. An uncapped plane is
// never over.
func (dc DomainCaps) Over(d Device, w units.Watts) bool {
	c := dc.PP1
	if d == CPU {
		c = dc.PP0
	}
	return c > 0 && w > c
}

// Allows reports whether the split respects both plane caps.
func (dc DomainCaps) Allows(s PowerSplit) bool { return !dc.Over(CPU, s.PP0) && !dc.Over(GPU, s.PP1) }

// Binding returns the limit the split loads most heavily — a plane cap
// or the package cap pkg — as the largest watts/cap ratio among the
// configured ones, with that ratio. ConstraintNone when nothing is
// capped.
func (dc DomainCaps) Binding(pkg units.Watts, s PowerSplit) (Constraint, float64) {
	best, ratio := ConstraintNone, 0.0
	check := func(c Constraint, w, cap units.Watts) {
		if cap <= 0 {
			return
		}
		if r := float64(w) / float64(cap); r > ratio {
			best, ratio = c, r
		}
	}
	check(ConstraintPP0, s.PP0, dc.PP0)
	check(ConstraintPP1, s.PP1, dc.PP1)
	check(ConstraintPackage, s.Package(), pkg)
	return best, ratio
}

// PowerSplit is one package-power sample broken down by plane. Uncore
// is the residual neither plane meters (idle/leakage power here).
type PowerSplit struct {
	PP0    units.Watts
	PP1    units.Watts
	Uncore units.Watts
}

// Package returns the total package power of the split.
func (s PowerSplit) Package() units.Watts { return s.PP0 + s.PP1 + s.Uncore }

// Constraint names whichever limit binds a scheduling decision: one of
// the power planes, the thermal throttle, or nothing.
type Constraint int

// The constraints a plan or a simulation can be bound by.
const (
	ConstraintNone Constraint = iota
	ConstraintPP0
	ConstraintPP1
	ConstraintPackage
	ConstraintThermal
)

// String implements fmt.Stringer with the lowercase names used in
// metric labels and bench reports.
func (c Constraint) String() string {
	switch c {
	case ConstraintNone:
		return "none"
	case ConstraintPP0:
		return "pp0"
	case ConstraintPP1:
		return "pp1"
	case ConstraintPackage:
		return "package"
	case ConstraintThermal:
		return "thermal"
	default:
		return fmt.Sprintf("Constraint(%d)", int(c))
	}
}

// SplitPower is PackagePower broken down by plane: PP0 carries the CPU
// activity plus the host thread feeding a busy GPU (the host burns CPU
// cycles, so the core plane meters it), PP1 the GPU activity, Uncore
// the always-on idle power. The sum equals PackagePower with the same
// arguments up to floating-point association.
func (c *Config) SplitPower(cpuIdx, gpuIdx int, cpuUtil, gpuUtil float64, gpuBusy bool) PowerSplit {
	s := PowerSplit{Uncore: c.IdlePower}
	if cpuUtil >= 0 {
		s.PP0 += c.ActivityPower(CPU, cpuIdx, cpuUtil)
	}
	if gpuUtil >= 0 {
		s.PP1 += c.ActivityPower(GPU, gpuIdx, gpuUtil)
	}
	if gpuBusy {
		s.PP0 += c.HostPower(cpuIdx)
	}
	return s
}

// MinCoRunSplit returns the per-plane power floor with both devices
// active at their lowest operating points, fully stalled — the
// domain-level analogue of MinFreqCap.
func (c *Config) MinCoRunSplit() PowerSplit {
	return c.SplitPower(0, 0, 0, 0, true)
}

// CheckCaps validates a package cap plus per-plane caps against the
// machine: no cap may be negative, and no configured cap may sit below
// the corresponding minimum co-run power (lowest operating points,
// full stalls) — such a cap makes co-running infeasible outright.
// Every entry point that accepts caps (corun facade, server API,
// journal recovery) funnels through this check so the error text is
// identical everywhere.
func (c *Config) CheckCaps(pkg units.Watts, dc DomainCaps) error {
	if pkg < 0 {
		return fmt.Errorf("apu: negative power cap %v", pkg)
	}
	if pkg > 0 && pkg < c.MinFreqCap() {
		return fmt.Errorf("apu: cap %v below the machine's minimum co-run power %v", pkg, c.MinFreqCap())
	}
	min := c.MinCoRunSplit()
	for _, pl := range []struct {
		plane      string
		cap, floor units.Watts
	}{
		{"pp0", dc.PP0, min.PP0},
		{"pp1", dc.PP1, min.PP1},
	} {
		if pl.cap < 0 {
			return fmt.Errorf("apu: negative %s power cap %v", pl.plane, pl.cap)
		}
		if pl.cap > 0 && pl.cap < pl.floor {
			return fmt.Errorf("apu: %s cap %v below the machine's minimum %s co-run power %v",
				pl.plane, pl.cap, pl.plane, pl.floor)
		}
	}
	return nil
}
