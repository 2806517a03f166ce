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
	"corun/internal/workload"
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
// simulator and assembles the staged characterization. Every distinct
// simulation runs once — one standalone run per surface, level and
// device, one co-run per cell and side — on up to GOMAXPROCS
// goroutines; the result does not depend on how many.
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
	if err := checkBandwidthLevels(levels); err != nil {
		return nil, err
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

	// The micro-kernels do not depend on the frequency pair, so every
	// surface shares one CPU-side and one GPU-side instance per level;
	// the simulator only reads them.
	cpuInst := make([]*workload.Instance, len(levels))
	gpuInst := make([]*workload.Instance, len(levels))
	for i, lvl := range levels {
		var err error
		if cpuInst[i], err = microInstance(lvl, opts.Cfg, 0); err != nil {
			return nil, err
		}
		if gpuInst[i], err = microInstance(lvl, opts.Cfg, 1); err != nil {
			return nil, err
		}
	}

	// First each surface's grid coordinates and standalone runs, one
	// item per (surface, level); then its co-runs, one item per
	// (surface, row), since every cell of a row needs every level's
	// standalone run on the GPU side.
	n, nl := len(cpuLvls)*len(gpuLvls), len(levels)
	flat := make([]surfaceRun, n)
	for k := range flat {
		flat[k] = newSurfaceRun(opts, cpuInst, gpuInst, cpuLvls[k/len(gpuLvls)], gpuLvls[k%len(gpuLvls)])
	}
	if err := forEach(n*nl, workers, func(k int) error { return flat[k/nl].standalone(k % nl) }); err != nil {
		return nil, err
	}
	if err := forEach(n*nl, workers, func(k int) error { return flat[k/nl].row(k % nl) }); err != nil {
		return nil, err
	}
	c.Surfaces = make([][]*Surface, len(cpuLvls))
	for a := range c.Surfaces {
		c.Surfaces[a] = make([]*Surface, len(gpuLvls))
		for b := range gpuLvls {
			c.Surfaces[a][b] = flat[a*len(gpuLvls)+b].s
		}
	}
	return c, nil
}

// forEach calls fn(0..n-1) on up to workers goroutines, each claiming
// the next index. Errors are kept per index, so the one returned is the
// lowest-indexed, whichever goroutine hit it.
func forEach(n, workers int, fn func(k int) error) error {
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
				errs[k] = fn(k)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkBandwidthLevels applies LoadCharacterization's rule for a
// surface's bandwidth grid to the micro-kernel levels it is measured
// at: at least one, and ascending.
func checkBandwidthLevels(levels []units.GBps) error {
	if len(levels) == 0 {
		return fmt.Errorf("model: empty bandwidth level list")
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] < levels[i-1] {
			return fmt.Errorf("model: bandwidth levels not ascending")
		}
	}
	return nil
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

// surfaceRun measures one frequency pair's 2D degradation grid. Each
// standalone(i) and row(i) writes only its own level's slots, so
// distinct levels may run concurrently; every row reads every level's
// standalone run, so all of those must be done first.
type surfaceRun struct {
	opts             sim.Options
	cf, gf           int
	cpuInst, gpuInst []*workload.Instance
	// soloCPU[i] and soloGPU[i] are level i's standalone wall times on
	// each device at (cf, gf).
	soloCPU, soloGPU []units.Seconds
	s                *Surface
}

func newSurfaceRun(opts CharacterizeOptions, cpuInst, gpuInst []*workload.Instance, cf, gf int) surfaceRun {
	n := len(cpuInst)
	return surfaceRun{
		opts: sim.Options{Cfg: opts.Cfg, Mem: opts.Mem},
		cf:   cf, gf: gf,
		cpuInst: cpuInst, gpuInst: gpuInst,
		soloCPU: make([]units.Seconds, n),
		soloGPU: make([]units.Seconds, n),
		s: &Surface{
			CPUFreq: cf, GPUFreq: gf,
			CPUBW:  make([]float64, n),
			GPUBW:  make([]float64, n),
			DegCPU: make([][]float64, n),
			DegGPU: make([][]float64, n),
		},
	}
}

// standalone measures level i's grid coordinates — the achieved
// standalone bandwidths at this frequency pair — and its standalone
// run on each device.
func (r *surfaceRun) standalone(i int) error {
	cfg, mem := r.opts.Cfg, r.opts.Mem
	r.s.CPUBW[i] = float64(r.cpuInst[i].Prog.AvgStandaloneBandwidth(apu.CPU, cfg.Freq(apu.CPU, r.cf), mem))
	r.s.GPUBW[i] = float64(r.gpuInst[i].Prog.AvgStandaloneBandwidth(apu.GPU, cfg.Freq(apu.GPU, r.gf), mem))
	var err error
	if r.soloCPU[i], err = sim.SoloTime(r.opts, r.cpuInst[i], apu.CPU, r.cf, r.gf); err != nil {
		return err
	}
	r.soloGPU[i], err = sim.SoloTime(r.opts, r.gpuInst[i], apu.GPU, r.cf, r.gf)
	return err
}

// row measures row i of both degradation tables: the CPU side at level
// i against every GPU-side level, and every GPU-side level against it.
func (r *surfaceRun) row(i int) error {
	n := len(r.cpuInst)
	degCPU, degGPU := make([]float64, n), make([]float64, n)
	for j := range degCPU {
		cres, err := sim.CoRunWithSolo(r.opts, r.cpuInst[i], apu.CPU, r.gpuInst[j], r.cf, r.gf, r.soloCPU[i])
		if err != nil {
			return err
		}
		degCPU[j] = clampTiny(cres.Degradation)
		gres, err := sim.CoRunWithSolo(r.opts, r.gpuInst[j], apu.GPU, r.cpuInst[i], r.cf, r.gf, r.soloGPU[j])
		if err != nil {
			return err
		}
		degGPU[j] = clampTiny(gres.Degradation)
	}
	r.s.DegCPU[i], r.s.DegGPU[i] = degCPU, degGPU
	return nil
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
