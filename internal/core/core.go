// Package core implements the paper's algorithmic contributions: the
// Co-Run Theorem, the heuristic co-scheduling algorithm (HCS), its
// post local refinement (HCS+), the optimal-makespan lower bound, and
// the Random and Default baseline schedulers.
//
// All algorithms consume an Oracle — predicted standalone times,
// pairwise co-run degradations, and powers at every frequency setting.
// In the full system the oracle is the staged-interpolation model of
// section V (package model); for ablations it can be the ground-truth
// simulator itself.
package core

import (
	"fmt"
	"sync"

	"corun/internal/apu"
	"corun/internal/units"
)

// Oracle supplies the performance and power estimates the scheduling
// algorithms reason over. Implementations: model.Predictor (the paper's
// predictive model) and model.GroundTruthOracle (measured, for
// ablation).
type Oracle interface {
	// NumJobs is the number of jobs in the batch.
	NumJobs() int

	// StandaloneTime is l_{i,p,f}: the solo execution time of job i on
	// device d at frequency level f.
	StandaloneTime(i int, d apu.Device, f int) units.Seconds

	// StandalonePower is the package power of that solo run.
	StandalonePower(i int, d apu.Device, f int) units.Watts

	// Degradation is d_{i,p,f}^{j,g}: the fractional slowdown of job i
	// on device d at level f while job j runs on the other device at
	// level g.
	Degradation(i int, dev apu.Device, f, j, g int) float64

	// CoRunPower is the package power with job i on the CPU at level f
	// and job j on the GPU at level g; a negative job index denotes an
	// idle device.
	CoRunPower(i, f, j, g int) units.Watts

	// CoRunSplit is CoRunPower broken down into RAPL-style planes (PP0
	// the CPU cores, PP1 the iGPU, the rest uncore); its Package() total
	// equals CoRunPower with the same arguments.
	CoRunSplit(i, f, j, g int) apu.PowerSplit
}

// FreqPair is one DVFS operating point of the whole package.
type FreqPair struct {
	CPU int
	GPU int
}

// Context bundles an oracle with the machine description and the power
// cap, and memoizes the frequency-selection queries the algorithms
// issue repeatedly.
type Context struct {
	Oracle Oracle
	Cfg    *apu.Config
	// Cap is the package power cap; zero or negative means uncapped.
	Cap units.Watts

	// Domains are optional RAPL-style per-plane caps enforced on top of
	// Cap: a PP0 entry bounds the CPU cores' power, PP1 the iGPU's, and
	// a Package entry tightens Cap. Like FreqStride, set it before the
	// first query — the memo tables assume the caps are fixed.
	Domains apu.DomainCaps

	// FreqStride coarsens the frequency traversal: only every
	// FreqStride-th level (counted down from the maximum) is examined.
	// The default 1 is the paper's exhaustive traversal; larger values
	// are the traversal-granularity ablation. Set it before the first
	// query: the memo tables assume it is fixed.
	FreqStride int

	// levels holds the traversed frequency indices of each device,
	// fixed at the first query.
	levelsOnce sync.Once
	levels     [apu.NumDevices][]int

	// mu guards the memo tables; a Context may be shared by concurrent
	// planners (e.g. evaluating refinement candidates in parallel) as
	// long as the Oracle itself is safe for concurrent reads.
	mu         sync.Mutex
	pairMemo   map[pairMemoKey]pairChoice
	minDegMemo map[pairMemoKey]minDegradation
	soloMemo   map[soloMemoKey]soloChoice
	msMemo     map[string]units.Seconds
}

// maxMakespanMemo bounds the predicted-makespan memo: the search
// policies evaluate many candidate schedules, and an unbounded table
// would grow with every distinct candidate ever seen. Once full, new
// schedules are evaluated but no longer stored.
const maxMakespanMemo = 1 << 16

type pairMemoKey struct{ c, g int }
type pairChoice struct {
	fp FreqPair
	dc float64 // degradation of the CPU job
	dg float64 // degradation of the GPU job
	ok bool
}

type minDegradation struct {
	d  float64
	ok bool
}

type soloMemoKey struct {
	i int
	d apu.Device
}
type soloChoice struct {
	f  int
	ok bool
}

// NewContext builds a scheduling context.
func NewContext(o Oracle, cfg *apu.Config, cap units.Watts) (*Context, error) {
	if o == nil || cfg == nil {
		return nil, fmt.Errorf("core: nil oracle or machine config")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Context{
		Oracle:     o,
		Cfg:        cfg,
		Cap:        cap,
		FreqStride: 1,
		pairMemo:   map[pairMemoKey]pairChoice{},
		minDegMemo: map[pairMemoKey]minDegradation{},
		soloMemo:   map[soloMemoKey]soloChoice{},
		msMemo:     map[string]units.Seconds{},
	}, nil
}

// stride returns the effective traversal stride.
func (cx *Context) stride() int {
	if cx.FreqStride < 1 {
		return 1
	}
	return cx.FreqStride
}

// freqLevels enumerates the frequency indices of device d the context
// traverses: every stride-th level counted down from the maximum, so
// the top level is always included.
func (cx *Context) freqLevels(d apu.Device) []int {
	cx.levelsOnce.Do(func() {
		for d := apu.CPU; d <= apu.GPU; d++ {
			for f := cx.Cfg.MaxFreqIndex(d); f >= 0; f -= cx.stride() {
				cx.levels[d] = append(cx.levels[d], f)
			}
		}
	})
	return cx.levels[d]
}

// eachFeasible is the frequency traversal of section IV-A.2: it visits
// every traversed operating point (fc, fg) of CPU job c beside GPU job
// g that fits every configured constraint — the package cap and the
// plane caps alike — CPU levels outermost, both from the top down,
// until visit returns false. Every question the algorithms ask about a
// co-running pair goes through it, so they cannot disagree on what is
// feasible.
func (cx *Context) eachFeasible(c, g int, visit func(fc, fg int) bool) {
	capped := cx.Capped()
	gpuLevels := cx.freqLevels(apu.GPU)
	for _, fc := range cx.freqLevels(apu.CPU) {
		for _, fg := range gpuLevels {
			if capped && !cx.pairFits(c, fc, g, fg) {
				continue
			}
			if !visit(fc, fg) {
				return
			}
		}
	}
}

// Capped reports whether any power constraint is in force — the
// package cap or any configured domain cap.
func (cx *Context) Capped() bool { return cx.Cap > 0 || cx.Domains.Any() }

// packageCap returns the effective package limit: the tighter of Cap
// and the Domains' package entry (zero or negative = uncapped).
func (cx *Context) packageCap() units.Watts { return cx.Domains.WithPackage(cx.Cap).Package }

// planesFit reports whether the pair's plane split respects the
// configured PP0/PP1 caps.
func (cx *Context) planesFit(i, f, j, g int) bool {
	if cx.Domains.PP0 <= 0 && cx.Domains.PP1 <= 0 {
		return true
	}
	s := cx.Oracle.CoRunSplit(i, f, j, g)
	if cx.Domains.PP0 > 0 && s.PP0 > cx.Domains.PP0 {
		return false
	}
	if cx.Domains.PP1 > 0 && s.PP1 > cx.Domains.PP1 {
		return false
	}
	return true
}

// pairFits reports whether the co-run operating point fits every
// configured constraint: the effective package cap and the plane caps.
func (cx *Context) pairFits(c, fc, g, fg int) bool {
	if pc := cx.packageCap(); pc > 0 && cx.Oracle.CoRunPower(c, fc, g, fg) > pc {
		return false
	}
	return cx.planesFit(c, fc, g, fg)
}

// soloFits is pairFits for a solo run of job i on device d at level f.
func (cx *Context) soloFits(i int, d apu.Device, f int) bool {
	if pc := cx.packageCap(); pc > 0 && cx.Oracle.StandalonePower(i, d, f) > pc {
		return false
	}
	ci, fc, gi, fg := i, f, -1, 0
	if d == apu.GPU {
		ci, fc, gi, fg = -1, 0, i, f
	}
	return cx.planesFit(ci, fc, gi, fg)
}

// Binding reports which constraint binds first at the pair's operating
// point — the plane or package cap with the highest utilization — and
// that utilization (predicted watts over the cap). ConstraintNone when
// nothing is configured.
func (cx *Context) Binding(c, fc, g, fg int) (apu.Constraint, float64) {
	dc := cx.Domains.WithPackage(cx.Cap)
	if !dc.Any() {
		return apu.ConstraintNone, 0
	}
	return dc.Binding(cx.Oracle.CoRunSplit(c, fc, g, fg))
}

// BestSoloFreq returns the fastest cap-feasible frequency level for
// job i running alone on device d, preferring higher levels (times are
// monotone in frequency). ok is false when no level fits the cap.
func (cx *Context) BestSoloFreq(i int, d apu.Device) (int, bool) {
	key := soloMemoKey{i, d}
	cx.mu.Lock()
	if v, ok := cx.soloMemo[key]; ok {
		cx.mu.Unlock()
		return v.f, v.ok
	}
	cx.mu.Unlock()
	choice := soloChoice{f: 0, ok: false}
	for f := cx.Cfg.MaxFreqIndex(d); f >= 0; f-- {
		if !cx.Capped() || cx.soloFits(i, d, f) {
			choice = soloChoice{f: f, ok: true}
			break
		}
	}
	cx.mu.Lock()
	cx.soloMemo[key] = choice
	cx.mu.Unlock()
	return choice.f, choice.ok
}

// BestSoloTime returns job i's fastest cap-feasible solo time on d.
func (cx *Context) BestSoloTime(i int, d apu.Device) (units.Seconds, bool) {
	f, ok := cx.BestSoloFreq(i, d)
	if !ok {
		return 0, false
	}
	return cx.Oracle.StandaloneTime(i, d, f), true
}

// BestSoloAnywhere returns job i's best solo (device, level, time)
// across both devices under the cap.
func (cx *Context) BestSoloAnywhere(i int) (apu.Device, int, units.Seconds, bool) {
	bestDev, bestF := apu.CPU, -1
	var bestT units.Seconds
	found := false
	for d := apu.CPU; d <= apu.GPU; d++ {
		t, ok := cx.BestSoloTime(i, d)
		if !ok {
			continue
		}
		if !found || t < bestT {
			f, _ := cx.BestSoloFreq(i, d)
			bestDev, bestF, bestT, found = d, f, t, true
		}
	}
	return bestDev, bestF, bestT, found
}

// ChoosePairFreqs selects the frequency pair for CPU job c co-running
// with GPU job g (either may be -1 for an idle device), maximizing the
// combined normalized progress rate subject to the power cap. The
// normalization measures each job's progress relative to its best
// cap-feasible solo configuration, so long and short jobs weigh
// equally. It returns the chosen pair, the two predicted degradations,
// and whether any cap-feasible setting exists.
//
// This is the frequency traversal of section IV-A.2: every (f, g)
// combination allowed by the cap is examined.
func (cx *Context) ChoosePairFreqs(c, g int) (FreqPair, float64, float64, bool) {
	key := pairMemoKey{c, g}
	cx.mu.Lock()
	if v, ok := cx.pairMemo[key]; ok {
		cx.mu.Unlock()
		return v.fp, v.dc, v.dg, v.ok
	}
	cx.mu.Unlock()
	choice := cx.choosePairFreqsUncached(c, g)
	cx.mu.Lock()
	cx.pairMemo[key] = choice
	cx.mu.Unlock()
	return choice.fp, choice.dc, choice.dg, choice.ok
}

func (cx *Context) choosePairFreqsUncached(c, g int) pairChoice {
	o := cx.Oracle
	// Solo cases reduce to the solo frequency choice.
	if c < 0 && g < 0 {
		return pairChoice{fp: FreqPair{0, 0}, ok: true}
	}
	if c < 0 {
		f, ok := cx.BestSoloFreq(g, apu.GPU)
		return pairChoice{fp: FreqPair{0, f}, ok: ok}
	}
	if g < 0 {
		f, ok := cx.BestSoloFreq(c, apu.CPU)
		return pairChoice{fp: FreqPair{f, 0}, ok: ok}
	}

	refC, okC := cx.BestSoloTime(c, apu.CPU)
	refG, okG := cx.BestSoloTime(g, apu.GPU)
	if !okC || !okG {
		return pairChoice{}
	}
	best := pairChoice{}
	bestScore := -1.0
	cx.eachFeasible(c, g, func(fc, fg int) bool {
		dc := o.Degradation(c, apu.CPU, fc, g, fg)
		dg := o.Degradation(g, apu.GPU, fg, c, fc)
		tc := float64(o.StandaloneTime(c, apu.CPU, fc)) * (1 + dc)
		tg := float64(o.StandaloneTime(g, apu.GPU, fg)) * (1 + dg)
		score := float64(refC)/tc + float64(refG)/tg
		if score > bestScore {
			bestScore = score
			best = pairChoice{fp: FreqPair{fc, fg}, dc: dc, dg: dg, ok: true}
		}
		return true
	})
	return best
}

// MinPairDegradation returns the minimal combined degradation (d_c +
// d_g) over all cap-feasible frequency pairs for CPU job c beside GPU
// job g — the interference metric of step 3. ok is false when no
// feasible pair exists. Step 3 asks it of every candidate against the
// running job at every pick, so the answer is memoized per pair.
func (cx *Context) MinPairDegradation(c, g int) (float64, bool) {
	key := pairMemoKey{c, g}
	cx.mu.Lock()
	if v, ok := cx.minDegMemo[key]; ok {
		cx.mu.Unlock()
		return v.d, v.ok
	}
	cx.mu.Unlock()
	o := cx.Oracle
	var min minDegradation
	cx.eachFeasible(c, g, func(fc, fg int) bool {
		d := o.Degradation(c, apu.CPU, fc, g, fg) + o.Degradation(g, apu.GPU, fg, c, fc)
		if !min.ok || d < min.d {
			min = minDegradation{d: d, ok: true}
		}
		return true
	})
	cx.mu.Lock()
	cx.minDegMemo[key] = min
	cx.mu.Unlock()
	return min.d, min.ok
}
