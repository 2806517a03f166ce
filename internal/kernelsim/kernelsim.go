// Package kernelsim models the execution of OpenCL-style kernels on the
// simulated integrated processor.
//
// A Program is a phase-structured analytic model of one benchmark: a
// total amount of abstract work (giga-operations), per-device execution
// efficiencies (how many Gops/s one GHz of clock buys), per-device
// memory latency sensitivities, and a sequence of phases that each move
// a characteristic number of bytes per operation.
//
// In any interval where the memory grant is known, a kernel's execution
// rate is
//
//	rate = min(eff * freq, grant / bytesPerOp)
//
// i.e. the kernel is compute-bound until the granted bandwidth becomes
// the bottleneck. Everything else in the simulator — co-run slowdowns,
// DVFS effects, power-activity scaling — derives from this one rule.
//
// Phase structure matters: the paper's predictive model only sees a
// program's average standalone bandwidth, while the ground truth
// executes each phase at its own intensity. The mismatch is a genuine,
// structural source of prediction error, just as on real hardware.
package kernelsim

import (
	"fmt"
	"math"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/units"
)

// Phase is one execution phase of a program.
type Phase struct {
	// Frac is the fraction of the program's total work done in this
	// phase. Fractions across a program sum to 1.
	Frac float64

	// BytesPerOp is the phase's memory intensity: bytes moved per
	// abstract operation. Zero means a purely compute phase.
	BytesPerOp float64
}

// Program is the analytic model of one benchmark.
type Program struct {
	// Name identifies the benchmark (e.g. "dwt2d").
	Name string

	// Work is the total abstract work in giga-operations at the
	// reference input size.
	Work units.GOps

	// CPUEff and GPUEff are execution efficiencies: achievable
	// Gops/s per GHz of device clock, absent memory stalls.
	CPUEff float64
	GPUEff float64

	// CPUSens and GPUSens are the program's memory latency
	// sensitivities on each device (see memsys.Demand).
	CPUSens float64
	GPUSens float64

	// Phases is the program's phase sequence, executed in order.
	Phases []Phase
}

// Validate checks the program model for consistency.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("kernelsim: program without a name")
	}
	for _, err := range [...]error{
		units.CheckPositive("Work", float64(p.Work)),
		units.CheckPositive("CPUEff", p.CPUEff),
		units.CheckPositive("GPUEff", p.GPUEff),
		units.CheckNonNegative("CPUSens", p.CPUSens),
		units.CheckNonNegative("GPUSens", p.GPUSens),
	} {
		if err != nil {
			return fmt.Errorf("kernelsim: %s: %w", p.Name, err)
		}
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("kernelsim: %s: no phases", p.Name)
	}
	sum := 0.0
	for i, ph := range p.Phases {
		if err := units.CheckPositive("Frac", ph.Frac); err != nil {
			return fmt.Errorf("kernelsim: %s: phase %d: %w", p.Name, i, err)
		}
		if err := units.CheckNonNegative("BytesPerOp", ph.BytesPerOp); err != nil {
			return fmt.Errorf("kernelsim: %s: phase %d: %w", p.Name, i, err)
		}
		sum += ph.Frac
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("kernelsim: %s: phase fractions sum to %v, want 1", p.Name, sum)
	}
	return nil
}

// Eff returns the execution efficiency of the program on device d.
func (p *Program) Eff(d apu.Device) float64 {
	if d == apu.CPU {
		return p.CPUEff
	}
	return p.GPUEff
}

// Sens returns the memory latency sensitivity of the program on d.
func (p *Program) Sens(d apu.Device) float64 {
	if d == apu.CPU {
		return p.CPUSens
	}
	return p.GPUSens
}

// PotentialRate is the stall-free execution rate (Gops/s) on device d
// at clock f.
func (p *Program) PotentialRate(d apu.Device, f units.GHz) float64 {
	return p.Eff(d) * float64(f)
}

// RateGivenGrant computes the achieved execution rate when the memory
// system grants the phase `grant` GB/s: the compute rate capped by the
// bandwidth bottleneck. A zero-intensity phase never stalls.
func RateGivenGrant(potential float64, bytesPerOp float64, grant units.GBps) float64 {
	if bytesPerOp <= 0 {
		return potential
	}
	return math.Min(potential, float64(grant)/bytesPerOp)
}

// SoloRun is what one solo run of a program on one device at one clock
// yields: its execution time, its time-averaged achieved memory
// bandwidth, and its time-averaged utilization.
type SoloRun struct {
	// Time is the run's duration with the program's work scaled by the
	// input scale.
	Time units.Seconds

	// Bandwidth is total bytes moved over total time: the statistic the
	// paper's predictive model interpolates with. It does not depend on
	// the input scale.
	Bandwidth units.GBps

	// Util is achieved rate over potential rate, weighted by time. It
	// feeds the power model: a bandwidth-bound program burns less
	// dynamic power. It does not depend on the input scale either.
	Util float64
}

// Solo runs the program alone on device d at clock f, with work scaled
// by scale (input size), against the given memory system: each phase
// runs at the minimum of its compute rate and the solo-capped bandwidth
// rate. One pass over the phases accumulates all three statistics.
func (p *Program) Solo(d apu.Device, f units.GHz, mem *memsys.Model, scale float64) SoloRun {
	r0 := p.PotentialRate(d, f)
	solo := memsys.SoloGPU
	if d == apu.CPU {
		solo = memsys.SoloCPU
	}
	work := float64(p.Work) * scale
	total, timeTotal, busyTotal, bytesTotal := 0.0, 0.0, 0.0, 0.0
	for _, ph := range p.Phases {
		grant := mem.Solo(solo, units.GBps(r0*ph.BytesPerOp))
		rate := RateGivenGrant(r0, ph.BytesPerOp, grant)
		total += work * ph.Frac / rate
		t := ph.Frac / rate // per unit of work; weighting is all that matters
		timeTotal += t
		busyTotal += t * rate / r0
		bytesTotal += ph.Frac * ph.BytesPerOp
	}
	return SoloRun{
		Time:      units.Seconds(total),
		Bandwidth: units.GBps(bytesTotal / timeTotal),
		Util:      busyTotal / timeTotal,
	}
}

// StandaloneTime is Solo's time.
func (p *Program) StandaloneTime(d apu.Device, f units.GHz, mem *memsys.Model, scale float64) units.Seconds {
	return p.Solo(d, f, mem, scale).Time
}

// StandaloneUtilization is Solo's utilization.
func (p *Program) StandaloneUtilization(d apu.Device, f units.GHz, mem *memsys.Model) float64 {
	return p.Solo(d, f, mem, 1).Util
}

// AvgStandaloneBandwidth is Solo's bandwidth.
func (p *Program) AvgStandaloneBandwidth(d apu.Device, f units.GHz, mem *memsys.Model) units.GBps {
	return p.Solo(d, f, mem, 1).Bandwidth
}
