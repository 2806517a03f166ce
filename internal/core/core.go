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

	// Degradation is d_{i,p,f}^{j,g}: the fractional slowdown of job i
	// on device d at level f while job j runs on the other device at
	// level g.
	Degradation(i int, dev apu.Device, f, j, g int) float64

	// CoRunPower is the package power with job i on the CPU at level f
	// and job j on the GPU at level g; a negative job index denotes an
	// idle device, so CoRunPower(i, f, -1, 0) is the power of job i's
	// solo run on the CPU.
	CoRunPower(i, f, j, g int) units.Watts

	// CoRunSplit is CoRunPower broken down into RAPL-style planes (PP0
	// the CPU cores, PP1 the iGPU, the rest uncore); its Package() total
	// equals CoRunPower with the same arguments.
	CoRunSplit(i, f, j, g int) apu.PowerSplit
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
	// a Package entry tightens Cap. Domains with Cap folded into its
	// package entry, and FreqStride, are the key under which a
	// pairTables oracle keeps each program pair's feasible points
	// across contexts, so a context under other caps never reads
	// another's lists. Set both before the first query all the same:
	// this context's own memo tables assume they are fixed.
	Domains apu.DomainCaps

	// FreqStride coarsens the frequency traversal: only every
	// FreqStride-th level (counted down from the maximum) is examined.
	// The default 1 is the paper's exhaustive traversal; larger values
	// are the traversal-granularity ablation. Like Domains it is part
	// of the feasible lists' key; set it before the first query.
	FreqStride int

	// levels, nf and times are read once, at the first query
	// (initTables): the traversed frequency indices of each device, its
	// level count, and every job's standalone time by device and level
	// (times[d][i*nf[d]+f]), so the traversal's visitors make no oracle
	// call per point.
	tablesOnce sync.Once
	levels     [apu.NumDevices][]int
	nf         [apu.NumDevices]int
	times      [apu.NumDevices][]units.Seconds

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
	fp apu.FreqPair
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

// initTables fills levels, nf and times.
func (cx *Context) initTables() {
	cx.tablesOnce.Do(func() {
		n := cx.Oracle.NumJobs()
		for d := apu.CPU; d <= apu.GPU; d++ {
			for f := cx.Cfg.MaxFreqIndex(d); f >= 0; f -= cx.stride() {
				cx.levels[d] = append(cx.levels[d], f)
			}
			cx.nf[d] = cx.Cfg.NumFreqs(d)
			cx.times[d] = make([]units.Seconds, n*cx.nf[d])
			for i := 0; i < n; i++ {
				for f := 0; f < cx.nf[d]; f++ {
					cx.times[d][i*cx.nf[d]+f] = cx.Oracle.StandaloneTime(i, d, f)
				}
			}
		}
	})
}

// freqLevels enumerates the frequency indices of device d the context
// traverses: every stride-th level counted down from the maximum, so
// the top level is always included.
func (cx *Context) freqLevels(d apu.Device) []int {
	cx.initTables()
	return cx.levels[d]
}

// soloTimes returns job i's standalone times on device d, by level.
func (cx *Context) soloTimes(i int, d apu.Device) []units.Seconds {
	cx.initTables()
	nf := cx.nf[d]
	return cx.times[d][i*nf : (i+1)*nf : (i+1)*nf]
}

// pairTables is implemented by oracles that hold each program pair's
// degradations in a flat table and keep its feasible operating points
// beyond one context (model.Predictor, in its characterization).
// Degradation(c, CPU, fc, g, fg) is cpu[fc*ng+fg]·Scale(c, CPU), and the
// GPU side likewise. A feasible list is keyed by the pair's programs,
// the effective caps and the stride — never by job index or input
// scale, which the power model does not read.
type pairTables interface {
	PairDegradations(c, g int) (cpu, gpu []float64, ng int)
	Scale(i int, d apu.Device) float64
	Feasible(c, g int, caps apu.DomainCaps, stride int) ([]apu.FreqPair, bool)
	KeepFeasible(c, g int, caps apu.DomainCaps, stride int, pts []apu.FreqPair) []apu.FreqPair
}

// feasible returns every traversed operating point of CPU job c beside
// GPU job g that fits every configured constraint, in traversal order
// (see traverse). Every question the algorithms ask about a co-running
// pair ranges over it, so they cannot disagree on what is feasible. The
// list is shared and must not be modified.
func (cx *Context) feasible(c, g int) []apu.FreqPair {
	store, cached := cx.Oracle.(pairTables)
	if !cached {
		return cx.traverse(c, g)
	}
	caps, stride := cx.Domains.WithPackage(cx.Cap), cx.stride()
	if pts, ok := store.Feasible(c, g, caps, stride); ok {
		return pts
	}
	return store.KeepFeasible(c, g, caps, stride, cx.traverse(c, g))
}

// traverse is the frequency traversal of section IV-A.2, the one
// builder of feasible lists: every traversed operating point (fc, fg)
// of CPU job c beside GPU job g that fits every configured constraint —
// the package cap and the plane caps alike — CPU levels outermost, both
// from the top down. The result is never nil.
func (cx *Context) traverse(c, g int) []apu.FreqPair {
	capped := cx.Capped()
	cpuLevels, gpuLevels := cx.freqLevels(apu.CPU), cx.freqLevels(apu.GPU)
	pts := make([]apu.FreqPair, 0, len(cpuLevels)*len(gpuLevels))
	for _, fc := range cpuLevels {
		for _, fg := range gpuLevels {
			if !capped || cx.pairFits(c, fc, g, fg) {
				pts = append(pts, apu.FreqPair{CPU: fc, GPU: fg})
			}
		}
	}
	return pts
}

// pairInputs are what the traversal's visitors read about CPU job c
// beside GPU job g at each operating point, fetched once per pair: the
// two jobs' standalone times by level and, from a pairTables oracle,
// their degradation rows.
type pairInputs struct {
	o      Oracle
	c, g   int
	tc, tg []units.Seconds
	dc, dg []float64 // nil: ask the oracle
	ng     int
	sc, sg float64
}

func (cx *Context) pairInputs(c, g int) pairInputs {
	in := pairInputs{o: cx.Oracle, c: c, g: g, tc: cx.soloTimes(c, apu.CPU), tg: cx.soloTimes(g, apu.GPU)}
	if t, ok := cx.Oracle.(pairTables); ok {
		in.dc, in.dg, in.ng = t.PairDegradations(c, g)
		in.sc, in.sg = t.Scale(c, apu.CPU), t.Scale(g, apu.GPU)
	}
	return in
}

// deg returns the predicted degradations of the CPU and the GPU job at
// p — exactly the oracle's Degradation answers.
func (in *pairInputs) deg(p apu.FreqPair) (dc, dg float64) {
	return in.degOn(apu.CPU, p), in.degOn(apu.GPU, p)
}

// degOn is deg's answer for the job on device d alone.
func (in *pairInputs) degOn(d apu.Device, p apu.FreqPair) float64 {
	switch {
	case in.dc == nil && d == apu.CPU:
		return in.o.Degradation(in.c, apu.CPU, p.CPU, in.g, p.GPU)
	case in.dc == nil:
		return in.o.Degradation(in.g, apu.GPU, p.GPU, in.c, p.CPU)
	case d == apu.CPU:
		return in.dc[p.CPU*in.ng+p.GPU] * in.sc
	default:
		return in.dg[p.CPU*in.ng+p.GPU] * in.sg
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

// soloFits is pairFits for a solo run of job i on device d at level f,
// the other device idle.
func (cx *Context) soloFits(i int, d apu.Device, f int) bool {
	if d == apu.CPU {
		return cx.pairFits(i, f, -1, 0)
	}
	return cx.pairFits(-1, 0, i, f)
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
	return cx.soloTimes(i, d)[f], true
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
func (cx *Context) ChoosePairFreqs(c, g int) (apu.FreqPair, float64, float64, bool) {
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
	// Solo cases reduce to the solo frequency choice.
	if c < 0 && g < 0 {
		return pairChoice{fp: apu.FreqPair{}, ok: true}
	}
	if c < 0 {
		f, ok := cx.BestSoloFreq(g, apu.GPU)
		return pairChoice{fp: apu.FreqPair{GPU: f}, ok: ok}
	}
	if g < 0 {
		f, ok := cx.BestSoloFreq(c, apu.CPU)
		return pairChoice{fp: apu.FreqPair{CPU: f}, ok: ok}
	}

	refC, okC := cx.BestSoloTime(c, apu.CPU)
	refG, okG := cx.BestSoloTime(g, apu.GPU)
	if !okC || !okG {
		return pairChoice{}
	}
	best := pairChoice{}
	bestScore := -1.0
	pts := cx.feasible(c, g)
	if len(pts) == 0 {
		return best
	}
	in := cx.pairInputs(c, g)
	for _, p := range pts {
		dc, dg := in.deg(p)
		tc := float64(in.tc[p.CPU]) * (1 + dc)
		tg := float64(in.tg[p.GPU]) * (1 + dg)
		score := float64(refC)/tc + float64(refG)/tg
		if score > bestScore {
			bestScore = score
			best = pairChoice{fp: p, dc: dc, dg: dg, ok: true}
		}
	}
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
	var min minDegradation
	if pts := cx.feasible(c, g); len(pts) > 0 {
		in := cx.pairInputs(c, g)
		for _, p := range pts {
			dc, dg := in.deg(p)
			if d := dc + dg; !min.ok || d < min.d {
				min = minDegradation{d: d, ok: true}
			}
		}
	}
	cx.mu.Lock()
	cx.minDegMemo[key] = min
	cx.mu.Unlock()
	return min.d, min.ok
}
