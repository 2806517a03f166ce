// Package apu describes the simulated integrated CPU-GPU processor: its
// DVFS frequency tables, its package power model, and the shared-memory
// parameters every other layer builds upon.
//
// The default configuration mirrors the platform used in the paper, an
// Intel Ivy Bridge i7-3520M with an integrated HD Graphics 4000: 16 CPU
// frequency levels from 1.2 GHz to 3.6 GHz, 10 GPU frequency levels from
// 350 MHz to 1.25 GHz, a shared last-level cache, and a single shared
// memory system.
package apu

import (
	"fmt"
	"math"
	"sync/atomic"

	"corun/internal/units"
)

// Device identifies one of the two processor types on the die.
type Device int

// The two device kinds of the integrated processor.
const (
	CPU Device = iota
	GPU
)

// NumDevices is the number of device kinds on the die.
const NumDevices = 2

// String implements fmt.Stringer.
func (d Device) String() string {
	switch d {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	default:
		return fmt.Sprintf("Device(%d)", int(d))
	}
}

// Other returns the opposite device: CPU for GPU and vice versa.
func (d Device) Other() Device {
	if d == CPU {
		return GPU
	}
	return CPU
}

// Valid reports whether d names a real device.
func (d Device) Valid() bool { return d == CPU || d == GPU }

// FreqPair is one DVFS operating point of the whole package: a
// frequency index per device.
type FreqPair struct {
	CPU int
	GPU int
}

// Config is the full machine description. A Config is immutable after
// construction; all simulator layers share a single instance.
type Config struct {
	// CPUFreqs and GPUFreqs are the DVFS operating points in GHz,
	// sorted ascending. Frequency indices used throughout the code
	// index into these slices.
	CPUFreqs []units.GHz
	GPUFreqs []units.GHz

	// IdlePower is the always-on package power (uncore, DRAM refresh,
	// leakage) in watts.
	IdlePower units.Watts

	// CPUPowerCoeff/CPUPowerExp parameterize the CPU dynamic power at
	// full activity: P = coeff * f^exp with f in GHz.
	CPUPowerCoeff float64
	CPUPowerExp   float64

	// GPUPowerCoeff/GPUPowerExp do the same for the GPU.
	GPUPowerCoeff float64
	GPUPowerExp   float64

	// StallPowerFloor is the fraction of dynamic power a device still
	// burns when fully stalled on memory (clock keeps toggling, the
	// pipeline doesn't retire).
	StallPowerFloor float64

	// HostPowerFrac is the fraction of CPU dynamic power consumed by
	// the host thread that feeds a running GPU kernel.
	HostPowerFrac float64

	// TDP is the nominal thermal design power in watts; power caps in
	// the experiments are well below it.
	TDP units.Watts

	// Thermal is the shared-heatsink RC model; the zero value disables
	// thermal simulation (see ThermalParams).
	Thermal ThermalParams

	// powMemo caches the f^exp evaluations behind DynPower, which sit
	// on the simulator's per-sample path (the governor alone evaluates
	// the curve several times per tick). Entries carry the inputs they
	// were computed from and are verified on every read, so a Config
	// mutated in place after first use falls back to the direct
	// computation instead of ever returning a stale value. The pointer
	// makes lazy initialization safe for planners running concurrently
	// (fleet nodes share one Config). Copying a Config by value is
	// already excluded by the "immutable, single shared instance"
	// contract above.
	powMemo atomic.Pointer[powMemoTable]
}

// WithThermal returns a new Config identical to c except for the
// thermal parameters. The fields are copied one by one — a whole-struct
// copy would carry the powMemo atomic along (vet copylocks) — and the
// copy starts with a cold memo, rebuilt lazily on first DynPower call.
func (c *Config) WithThermal(tp ThermalParams) *Config {
	return &Config{
		CPUFreqs:        append([]units.GHz(nil), c.CPUFreqs...),
		GPUFreqs:        append([]units.GHz(nil), c.GPUFreqs...),
		IdlePower:       c.IdlePower,
		CPUPowerCoeff:   c.CPUPowerCoeff,
		CPUPowerExp:     c.CPUPowerExp,
		GPUPowerCoeff:   c.GPUPowerCoeff,
		GPUPowerExp:     c.GPUPowerExp,
		StallPowerFloor: c.StallPowerFloor,
		HostPowerFrac:   c.HostPowerFrac,
		TDP:             c.TDP,
		Thermal:         tp,
	}
}

// powMemoTable is one immutable snapshot of the dynamic-power curve,
// indexed [device][level].
type powMemoTable [NumDevices][]powMemoEntry

// powMemoEntry is one memoized DynPower evaluation plus the exact
// inputs it was derived from.
type powMemoEntry struct {
	f, coeff, exp float64
	pow           float64
}

// DefaultConfig returns the i7-3520M-like machine used throughout the
// reproduction: 16 CPU levels 1.2-3.6 GHz, 10 GPU levels 0.35-1.25 GHz,
// and power constants calibrated so that the medium operating point
// (2.2 GHz CPU, 0.85 GHz GPU) lands near a 15-16 W cap, mirroring
// section VI.B of the paper.
func DefaultConfig() *Config {
	cfg := &Config{
		CPUFreqs:        MustFreqLadder(1.2, 3.6, 16),
		GPUFreqs:        MustFreqLadder(0.35, 1.25, 10),
		IdlePower:       2.0,
		CPUPowerCoeff:   1.794,
		CPUPowerExp:     1.8,
		GPUPowerCoeff:   7.698,
		GPUPowerExp:     1.6,
		StallPowerFloor: 0.60,
		HostPowerFrac:   0.06,
		TDP:             35,
		// A mobile part under a laptop heatsink: ~30 s time constant,
		// trip point high enough that the default machine only
		// throttles when an experiment lowers TMaxC (max package power
		// ~32 W steadies near 81 C, below the 95 C trip).
		Thermal: ThermalParams{
			AmbientC:    30,
			RThermal:    1.6,
			CThermal:    20,
			TMaxC:       95,
			HysteresisC: 3,
		},
	}
	return cfg
}

// KaveriConfig returns an AMD A10-7850K-like desktop APU: 4 CPU cores
// at 1.7-3.7 GHz, a GCN GPU at 0.35-0.72 GHz, and desktop-class power
// constants (95 W TDP). The paper notes that the co-run phenomena it
// studies appear "on both Intel and AMD" integrated processors; this
// preset lets experiments check that the pipeline's conclusions do not
// depend on the default machine.
func KaveriConfig() *Config {
	return &Config{
		CPUFreqs:        MustFreqLadder(1.7, 3.7, 11),
		GPUFreqs:        MustFreqLadder(0.35, 0.72, 8),
		IdlePower:       4.0,
		CPUPowerCoeff:   4.27,
		CPUPowerExp:     1.8,
		GPUPowerCoeff:   42.3,
		GPUPowerExp:     1.6,
		StallPowerFloor: 0.60,
		HostPowerFrac:   0.06,
		TDP:             95,
		// A desktop tower cooler: lower resistance, much more thermal
		// mass than the mobile default.
		Thermal: ThermalParams{
			AmbientC:    28,
			RThermal:    0.45,
			CThermal:    120,
			TMaxC:       90,
			HysteresisC: 3,
		},
	}
}

// FreqLadder builds n evenly spaced operating points from lo to hi GHz
// inclusive, sorted ascending. Degenerate requests (n < 2, a
// non-ascending range, or non-finite endpoints) are rejected here
// rather than surfacing later as Validate's confusing "table not
// ascending" on a config the caller never meant to build.
func FreqLadder(lo, hi float64, n int) ([]units.GHz, error) {
	if n < 2 {
		return nil, fmt.Errorf("apu: frequency ladder needs at least 2 points, got %d", n)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("apu: non-finite frequency ladder bounds [%v, %v]", lo, hi)
	}
	if lo >= hi {
		return nil, fmt.Errorf("apu: frequency ladder bounds not ascending: lo %v >= hi %v", lo, hi)
	}
	out := make([]units.GHz, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = units.GHz(lo + step*float64(i))
	}
	return out, nil
}

// MustFreqLadder is FreqLadder for compiled-in presets, panicking on a
// degenerate range.
func MustFreqLadder(lo, hi float64, n int) []units.GHz {
	fs, err := FreqLadder(lo, hi, n)
	if err != nil {
		panic(err)
	}
	return fs
}

// Validate checks internal consistency of the configuration.
func (c *Config) Validate() error {
	if len(c.CPUFreqs) == 0 || len(c.GPUFreqs) == 0 {
		return fmt.Errorf("apu: empty frequency table")
	}
	for d := CPU; d <= GPU; d++ {
		fs := c.Freqs(d)
		for i := 1; i < len(fs); i++ {
			if fs[i] <= fs[i-1] {
				return fmt.Errorf("apu: %v frequency table not ascending at index %d", d, i)
			}
		}
		if fs[0] <= 0 {
			return fmt.Errorf("apu: %v frequencies must be positive", d)
		}
	}
	if c.IdlePower < 0 {
		return fmt.Errorf("apu: negative idle power %v", c.IdlePower)
	}
	if c.CPUPowerCoeff <= 0 || c.GPUPowerCoeff <= 0 {
		return fmt.Errorf("apu: power coefficients must be positive")
	}
	if c.StallPowerFloor < 0 || c.StallPowerFloor > 1 {
		return fmt.Errorf("apu: StallPowerFloor %v outside [0,1]", c.StallPowerFloor)
	}
	if c.HostPowerFrac < 0 || c.HostPowerFrac > 1 {
		return fmt.Errorf("apu: HostPowerFrac %v outside [0,1]", c.HostPowerFrac)
	}
	return c.Thermal.Validate()
}

// Freqs returns the frequency table of the given device.
func (c *Config) Freqs(d Device) []units.GHz {
	if d == CPU {
		return c.CPUFreqs
	}
	return c.GPUFreqs
}

// NumFreqs returns the number of DVFS levels on the given device.
func (c *Config) NumFreqs(d Device) int { return len(c.Freqs(d)) }

// MaxFreqIndex returns the index of the highest operating point of d.
func (c *Config) MaxFreqIndex(d Device) int { return c.NumFreqs(d) - 1 }

// Freq returns the clock of device d at level idx. It panics on an
// out-of-range index: frequency indices are internal invariants, not
// user input.
func (c *Config) Freq(d Device, idx int) units.GHz {
	fs := c.Freqs(d)
	if idx < 0 || idx >= len(fs) {
		panic(freqRangeError{d, idx, len(fs)})
	}
	return fs[idx]
}

// freqRangeError is Freq's panic value. Its message is formatted only
// when printed, so that Freq itself stays within the inliner's budget.
type freqRangeError struct {
	d      Device
	idx, n int
}

func (e freqRangeError) Error() string {
	return fmt.Sprintf("apu: %v frequency index %d out of range [0,%d)", e.d, e.idx, e.n)
}

// ClosestFreqIndex returns the index of the operating point of d whose
// clock is nearest to ghz, or -1 when ghz is NaN (every distance
// comparison against NaN is false, which used to fall through to a
// silent index 0 — the lowest operating point — masking bad input).
func (c *Config) ClosestFreqIndex(d Device, ghz units.GHz) int {
	if math.IsNaN(float64(ghz)) {
		return -1
	}
	fs := c.Freqs(d)
	best, bestDist := 0, math.Inf(1)
	for i, f := range fs {
		if dist := math.Abs(float64(f - ghz)); dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}

// DynPower returns the full-activity dynamic power of device d at
// frequency level idx. The power curve P = coeff * f^exp is memoized
// per (device, level) — the levels are a small discrete ladder, and
// this evaluation dominates the simulator's sample loop otherwise.
func (c *Config) DynPower(d Device, idx int) units.Watts {
	f := float64(c.Freq(d, idx))
	coeff, exp := c.GPUPowerCoeff, c.GPUPowerExp
	di := 1
	if d == CPU {
		coeff, exp = c.CPUPowerCoeff, c.CPUPowerExp
		di = 0
	}
	t := c.powMemo.Load()
	if t == nil {
		t = c.buildPowMemo()
		c.powMemo.Store(t)
	}
	if es := t[di]; idx >= 0 && idx < len(es) {
		if e := es[idx]; e.f == f && e.coeff == coeff && e.exp == exp {
			return units.Watts(e.pow)
		}
	}
	return units.Watts(coeff * math.Pow(f, exp))
}

// buildPowMemo evaluates the full dynamic-power ladder of both devices
// with exactly the arithmetic DynPower's direct path uses, so the
// memoized and unmemoized answers are bit-for-bit identical.
func (c *Config) buildPowMemo() *powMemoTable {
	var t powMemoTable
	for di, d := range [NumDevices]Device{CPU, GPU} {
		coeff, exp := c.CPUPowerCoeff, c.CPUPowerExp
		if d == GPU {
			coeff, exp = c.GPUPowerCoeff, c.GPUPowerExp
		}
		fs := c.Freqs(d)
		es := make([]powMemoEntry, len(fs))
		for i, fq := range fs {
			f := float64(fq)
			es[i] = powMemoEntry{f: f, coeff: coeff, exp: exp, pow: coeff * math.Pow(f, exp)}
		}
		t[di] = es
	}
	return &t
}

// ActivityPower returns the dynamic power of device d at level idx when
// running at the given utilization in [0,1]. A fully stalled device
// still burns StallPowerFloor of its dynamic power; an idle device
// (util < 0) burns nothing.
func (c *Config) ActivityPower(d Device, idx int, util float64) units.Watts {
	if util < 0 {
		return 0
	}
	util = units.Clamp(util, 0, 1)
	scale := c.StallPowerFloor + (1-c.StallPowerFloor)*util
	return units.Watts(float64(c.DynPower(d, idx)) * scale)
}

// HostPower returns the CPU power drawn by the host thread that feeds a
// GPU kernel when the CPU is clocked at level cpuIdx.
func (c *Config) HostPower(cpuIdx int) units.Watts {
	return units.Watts(float64(c.DynPower(CPU, cpuIdx)) * c.HostPowerFrac)
}

// PackagePower composes total package power from the per-device
// utilizations. A utilization below zero means the device is idle (not
// merely stalled). gpuBusy additionally charges the host-thread power.
func (c *Config) PackagePower(cpuIdx, gpuIdx int, cpuUtil, gpuUtil float64, gpuBusy bool) units.Watts {
	p := c.IdlePower
	if cpuUtil >= 0 {
		p += c.ActivityPower(CPU, cpuIdx, cpuUtil)
	}
	if gpuUtil >= 0 {
		p += c.ActivityPower(GPU, gpuIdx, gpuUtil)
	}
	if gpuBusy {
		p += c.HostPower(cpuIdx)
	}
	return p
}

// MaxPackagePower is the highest package power the machine draws: both
// devices busy at their top levels, never stalled.
func (c *Config) MaxPackagePower() units.Watts {
	return c.PackagePower(c.MaxFreqIndex(CPU), c.MaxFreqIndex(GPU), 1, 1, true)
}

// Cold is the heatsink of a machine that has not run: at ambient, with
// no throttle ceiling below the devices' top levels.
func (c *Config) Cold() Heat {
	return Heat{TempC: c.Thermal.AmbientC, Ceil: [NumDevices]int{c.MaxFreqIndex(CPU), c.MaxFreqIndex(GPU)}}
}

// MinFreqCap returns the lowest package power achievable with both
// devices active, i.e. both at their lowest operating point, full
// stalls. Caps below this are infeasible for co-running.
func (c *Config) MinFreqCap() units.Watts {
	return c.PackagePower(0, 0, 0, 0, true)
}
