// Package model implements the paper's co-run performance and power
// prediction (section V): micro-benchmark characterization of the
// degradation space plus staged interpolation.
//
// Characterization runs the controllable micro-kernel at a grid of
// bandwidth levels on each device and co-runs every pair, measuring the
// time degradation of each side on the ground-truth simulator — the
// software analogue of profiling the stressor on real hardware. One
// degradation surface pair (CPU-side, GPU-side) is collected per
// characterized frequency pair.
//
// Prediction is a two-stage interpolation. To predict the degradation
// of job i (on one device at level f) co-running with job j (on the
// other device at level g):
//
//  1. look up both jobs' standalone average bandwidths at their
//     operating points (from the offline profile) and bilinearly
//     interpolate each bracketing characterization surface in the
//     (cpu-bandwidth, gpu-bandwidth) plane;
//  2. bilinearly interpolate those surface values across the
//     characterized frequency grid to the actual frequency pair.
//
// This keeps profiling cost at O(K_c^2 * L^2) micro-kernel co-runs
// (K_c characterized levels per device, L bandwidth levels) instead of
// O(N^2 * K^2) real-program co-runs.
package model

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/sim"
	"corun/internal/units"
)

// Surface is one characterized degradation surface pair at a fixed
// frequency pair.
type Surface struct {
	// CPUFreq and GPUFreq are the frequency indices this surface was
	// characterized at.
	CPUFreq int
	GPUFreq int

	// CPUBW[i] is the achieved standalone bandwidth of the i-th
	// micro-kernel level on the CPU at CPUFreq (ascending); GPUBW
	// likewise for the GPU.
	CPUBW []float64
	GPUBW []float64

	// DegCPU[i][j] is the time degradation of the CPU-side micro-kernel
	// at level i when the GPU-side runs at level j; DegGPU[i][j] is the
	// GPU side's degradation for the same pair.
	DegCPU [][]float64
	DegGPU [][]float64
}

// cut is a position on one interpolation axis: the two bracketing grid
// indices and the weight of the upper one.
type cut struct {
	lo, hi int
	t      float64
}

// side selects the surface's degradation table for one device.
func (s *Surface) side(dev apu.Device) [][]float64 {
	if dev == apu.CPU {
		return s.DegCPU
	}
	return s.DegGPU
}

// bilerp is stage one of the staged interpolation: bilinear in a
// surface's (cpu-bandwidth, gpu-bandwidth) plane.
func bilerp(table [][]float64, cpu, gpu cut) float64 {
	v0 := units.Lerp(table[cpu.lo][gpu.lo], table[cpu.lo][gpu.hi], gpu.t)
	v1 := units.Lerp(table[cpu.hi][gpu.lo], table[cpu.hi][gpu.hi], gpu.t)
	return units.Lerp(v0, v1, cpu.t)
}

// valueAt bilinearly interpolates one of the surface's tables at the
// given bandwidth coordinates, clamping outside the grid.
func (s *Surface) valueAt(dev apu.Device, cpuBW, gpuBW float64) float64 {
	return bilerp(s.side(dev), bracket(s.CPUBW, cpuBW), bracket(s.GPUBW, gpuBW))
}

// bracket finds the cut of ascending xs at x: indices lo <= hi with
// xs[lo] <= x <= xs[hi] (clamped at the edges) and the interpolation
// weight.
func bracket(xs []float64, x float64) cut {
	n := len(xs)
	if n == 1 || x <= xs[0] {
		return cut{}
	}
	if x >= xs[n-1] {
		return cut{lo: n - 1, hi: n - 1}
	}
	hi := sort.SearchFloat64s(xs, x)
	lo := hi - 1
	span := xs[hi] - xs[lo]
	if span <= 0 {
		return cut{lo: lo, hi: hi}
	}
	return cut{lo: lo, hi: hi, t: (x - xs[lo]) / span}
}

// Characterization is the full staged characterization: a sparse grid
// of frequency pairs, each with one degradation surface pair.
type Characterization struct {
	// CPULevels and GPULevels are the characterized frequency indices
	// (ascending).
	CPULevels []int
	GPULevels []int

	// Surfaces[a][b] is the surface at (CPULevels[a], GPULevels[b]).
	Surfaces [][]*Surface

	// cpuFreqGHz/gpuFreqGHz cache the clock values of the levels for
	// interpolation weights.
	cpuFreqGHz []float64
	gpuFreqGHz []float64

	// pairs memoizes Degradation per program pair; see pairCache. It
	// is not part of the persisted form: a loaded characterization
	// starts with an empty cache.
	pairs pairCache
}

// CharacterizeOptions configures the characterization pass.
type CharacterizeOptions struct {
	Cfg *apu.Config
	Mem *memsys.Model

	// Levels are the micro-kernel bandwidth settings; nil defaults to
	// the paper's 11 settings over 0-11 GB/s.
	Levels []units.GBps

	// CPUFreqLevels and GPUFreqLevels are the frequency indices to
	// characterize at; nil defaults to {min, closest-to-median, max}.
	CPUFreqLevels []int
	GPUFreqLevels []int
}

func defaultFreqLevels(cfg *apu.Config, d apu.Device) []int {
	max := cfg.MaxFreqIndex(d)
	return []int{0, max / 2, max}
}

// Characterize runs the micro-kernel co-run grid on the ground-truth
// simulator and assembles the staged characterization. The surfaces
// are independent simulations, so they are measured on up to
// GOMAXPROCS goroutines; the result does not depend on how many.
func Characterize(opts CharacterizeOptions) (*Characterization, error) {
	return characterize(opts, runtime.GOMAXPROCS(0))
}

func characterize(opts CharacterizeOptions, workers int) (*Characterization, error) {
	if opts.Cfg == nil || opts.Mem == nil {
		return nil, fmt.Errorf("model: nil machine or memory model")
	}
	levels := opts.Levels
	if levels == nil {
		levels = Levels(11, 11)
	}
	cpuLvls := opts.CPUFreqLevels
	if cpuLvls == nil {
		cpuLvls = defaultFreqLevels(opts.Cfg, apu.CPU)
	}
	gpuLvls := opts.GPUFreqLevels
	if gpuLvls == nil {
		gpuLvls = defaultFreqLevels(opts.Cfg, apu.GPU)
	}
	if err := checkAscending(cpuLvls, opts.Cfg.NumFreqs(apu.CPU)); err != nil {
		return nil, fmt.Errorf("model: CPU levels: %w", err)
	}
	if err := checkAscending(gpuLvls, opts.Cfg.NumFreqs(apu.GPU)); err != nil {
		return nil, fmt.Errorf("model: GPU levels: %w", err)
	}

	c := &Characterization{CPULevels: cpuLvls, GPULevels: gpuLvls}
	for _, l := range cpuLvls {
		c.cpuFreqGHz = append(c.cpuFreqGHz, float64(opts.Cfg.Freq(apu.CPU, l)))
	}
	for _, l := range gpuLvls {
		c.gpuFreqGHz = append(c.gpuFreqGHz, float64(opts.Cfg.Freq(apu.GPU, l)))
	}
	// Workers claim surfaces by flat index and write only their own
	// slots; errors are kept per slot so the one reported is the first
	// in grid order, whichever worker hit it.
	n := len(cpuLvls) * len(gpuLvls)
	flat := make([]*Surface, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				flat[k], errs[k] = characterizeSurface(opts, levels, cpuLvls[k/len(gpuLvls)], gpuLvls[k%len(gpuLvls)])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	c.Surfaces = make([][]*Surface, len(cpuLvls))
	for a := range cpuLvls {
		lo, hi := a*len(gpuLvls), (a+1)*len(gpuLvls)
		c.Surfaces[a] = flat[lo:hi:hi]
	}
	return c, nil
}

func checkAscending(levels []int, n int) error {
	if len(levels) == 0 {
		return fmt.Errorf("empty level list")
	}
	for i, l := range levels {
		if l < 0 || l >= n {
			return fmt.Errorf("level %d out of range [0,%d)", l, n)
		}
		if i > 0 && l <= levels[i-1] {
			return fmt.Errorf("levels not strictly ascending")
		}
	}
	return nil
}

// characterizeSurface measures one frequency pair's 2D degradation
// grid.
func characterizeSurface(opts CharacterizeOptions, levels []units.GBps, cf, gf int) (*Surface, error) {
	n := len(levels)
	s := &Surface{
		CPUFreq: cf, GPUFreq: gf,
		CPUBW:  make([]float64, n),
		GPUBW:  make([]float64, n),
		DegCPU: make([][]float64, n),
		DegGPU: make([][]float64, n),
	}
	cfg, mem := opts.Cfg, opts.Mem

	// Grid coordinates: achieved standalone bandwidths at this
	// frequency pair.
	for i, lvl := range levels {
		k, err := microKernel(lvl, cfg)
		if err != nil {
			return nil, err
		}
		s.CPUBW[i] = float64(k.AvgStandaloneBandwidth(apu.CPU, cfg.Freq(apu.CPU, cf), mem))
		s.GPUBW[i] = float64(k.AvgStandaloneBandwidth(apu.GPU, cfg.Freq(apu.GPU, gf), mem))
	}

	simOpts := sim.Options{Cfg: cfg, Mem: mem}
	for i := range levels {
		s.DegCPU[i] = make([]float64, n)
		s.DegGPU[i] = make([]float64, n)
		for j := range levels {
			cpuInst, err := microInstance(levels[i], cfg, 0)
			if err != nil {
				return nil, err
			}
			gpuInst, err := microInstance(levels[j], cfg, 1)
			if err != nil {
				return nil, err
			}
			cres, err := sim.CoRun(simOpts, cpuInst, apu.CPU, gpuInst, cf, gf)
			if err != nil {
				return nil, err
			}
			s.DegCPU[i][j] = clampTiny(cres.Degradation)
			gres, err := sim.CoRun(simOpts, gpuInst, apu.GPU, cpuInst, cf, gf)
			if err != nil {
				return nil, err
			}
			s.DegGPU[i][j] = clampTiny(gres.Degradation)
		}
	}
	return s, nil
}

// clampTiny zeroes the sub-microscopic negative degradations that the
// event simulator's time tolerance can produce.
func clampTiny(d float64) float64 {
	if d < 0 && d > -1e-6 {
		return 0
	}
	return d
}

// SurfaceAt returns the characterized surface at grid cell (a, b).
func (c *Characterization) SurfaceAt(a, b int) *Surface { return c.Surfaces[a][b] }

// Degradation predicts the degradation of the device-`dev` side of a
// co-run whose CPU side streams cpuBW GB/s standalone and whose GPU
// side streams gpuBW GB/s, at the actual frequency pair (cpuGHz,
// gpuGHz). This is the staged interpolation: bandwidth-plane bilinear
// per surface, then frequency-plane bilinear across surfaces.
func (c *Characterization) Degradation(dev apu.Device, cpuBW, gpuBW, cpuGHz, gpuGHz float64) float64 {
	return acrossSurfaces(bracket(c.cpuFreqGHz, cpuGHz), bracket(c.gpuFreqGHz, gpuGHz), func(a, b int) float64 {
		return c.Surfaces[a][b].valueAt(dev, cpuBW, gpuBW)
	})
}

// acrossSurfaces is stage two: bilinear across the four surfaces that
// bracket the frequency pair, val(a, b) being stage one on surface
// (a, b).
func acrossSurfaces(cpu, gpu cut, val func(a, b int) float64) float64 {
	v0 := units.Lerp(val(cpu.lo, gpu.lo), val(cpu.lo, gpu.hi), gpu.t)
	v1 := units.Lerp(val(cpu.hi, gpu.lo), val(cpu.hi, gpu.hi), gpu.t)
	return units.Lerp(v0, v1, cpu.t)
}
