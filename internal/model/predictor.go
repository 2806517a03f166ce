package model

import (
	"fmt"
	"sync"
	"sync/atomic"

	"corun/internal/apu"
	"corun/internal/profile"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// profiled answers the profile-backed half of the planner's oracle —
// solo times, the paper's standalone-sum power model and its plane
// split — for both oracles of this package, which differ only in how
// they answer Degradation.
type profiled struct {
	Prof *profile.Standalone
}

// NumJobs returns the number of jobs in the profiled batch.
func (p profiled) NumJobs() int { return p.Prof.NumJobs() }

// StandaloneTime returns the profiled solo time of job i on device d at
// frequency level f.
func (p profiled) StandaloneTime(i int, d apu.Device, f int) units.Seconds {
	return p.Prof.Time(i, d, f)
}

// CoRunPower predicts the package power of job i on the CPU at level f
// co-running with job j on the GPU at level g, as the paper does: the
// sum of the standalone powers at the same frequencies (idle counted
// once). Either job index may be negative to denote an idle device, so
// a solo run's power is its profiled power exactly.
func (p profiled) CoRunPower(i, f, j, g int) units.Watts {
	prof := p.Prof
	if i < 0 {
		if j < 0 {
			return prof.Cfg.IdlePower
		}
		return prof.Power(j, apu.GPU, g)
	}
	cpu := prof.Power(i, apu.CPU, f)
	if j < 0 {
		return cpu
	}
	return cpu + prof.Power(j, apu.GPU, g) - prof.Cfg.IdlePower
}

// Predictor is the paper's co-run performance and power model over one
// profiled batch: the staged interpolation of section V over the
// micro-benchmark characterization and the batch's offline standalone
// profiles, optionally corrected per (job, device) by calibration
// factors (NewCalibratedPredictor). It implements the core package's
// Oracle.
//
// The interpolation runs once per program pair for as long as the
// Characterization lives, not once per batch, cap or policy: the
// predictor maps each job to its two interned profile rows and answers
// Degradation with a read of the pair's table in the characterization's
// pair cache, times the job's factor. It also keeps there, per program
// pair and set of caps, the cap-feasible operating points a planner's
// traversal found (Feasible, KeepFeasible), so the power model is asked
// once per pair and cap rather than once per epoch. It is as cheap to
// make as the batch is long, safe for concurrent use, and so is sharing
// one Characterization between the predictors of concurrently planned
// batches.
type Predictor struct {
	profiled
	Char *Characterization

	// rows[d][i] is job i's interned profile row on device d.
	rows [apu.NumDevices][]*row
	// scale[i][d] is the calibrated factor of job i on device d; nil
	// when uncalibrated.
	scale [][]float64
	// tabs[c*n+g] is the table of job c on the CPU beside job g on the
	// GPU, once this predictor has looked it up.
	tabs []atomic.Pointer[pairTable]

	// hits and misses count the predictor's table lookups, not its
	// queries: a query for a pair it already holds is a plain read.
	hits, misses atomic.Uint64
}

// NewPredictor validates and assembles a predictor, interning the
// batch's profile rows in the characterization's pair cache.
func NewPredictor(char *Characterization, prof *profile.Standalone) (*Predictor, error) {
	if char == nil || prof == nil {
		return nil, fmt.Errorf("model: nil characterization or profile")
	}
	if len(char.Surfaces) == 0 {
		return nil, fmt.Errorf("model: empty characterization")
	}
	n := prof.NumJobs()
	p := &Predictor{profiled: profiled{prof}, Char: char, tabs: make([]atomic.Pointer[pairTable], n*n)}
	for d := apu.CPU; d <= apu.GPU; d++ {
		p.rows[d] = make([]*row, n)
		for i := range p.rows[d] {
			p.rows[d][i] = char.internRow(prof, i, d)
		}
	}
	return p, nil
}

// Degradation predicts the time degradation of job i running on device
// dev at level f while job j runs on the opposite device at level g:
// the pair table's value (Interpolate's, bit for bit) times Scale.
func (p *Predictor) Degradation(i int, dev apu.Device, f, j, g int) float64 {
	cj, fc, gj, fg := i, f, j, g
	if dev == apu.GPU {
		cj, fc, gj, fg = j, g, i, f
	}
	return p.table(cj, gj).at(dev, fc, fg) * p.Scale(i, dev)
}

// Interpolate is the staged interpolation of one query, uncalibrated:
// the reference the pair tables are filled from.
func (p *Predictor) Interpolate(i int, dev apu.Device, f, j, g int) float64 {
	var cpuBW, gpuBW float64
	var cpuGHz, gpuGHz float64
	cfg := p.Prof.Cfg
	if dev == apu.CPU {
		cpuBW = float64(p.Prof.Bandwidth(i, apu.CPU, f))
		gpuBW = float64(p.Prof.Bandwidth(j, apu.GPU, g))
		cpuGHz = float64(cfg.Freq(apu.CPU, f))
		gpuGHz = float64(cfg.Freq(apu.GPU, g))
	} else {
		gpuBW = float64(p.Prof.Bandwidth(i, apu.GPU, f))
		cpuBW = float64(p.Prof.Bandwidth(j, apu.CPU, g))
		gpuGHz = float64(cfg.Freq(apu.GPU, f))
		cpuGHz = float64(cfg.Freq(apu.CPU, g))
	}
	d := p.Char.Degradation(dev, cpuBW, gpuBW, cpuGHz, gpuGHz)
	if d < 0 {
		return 0
	}
	return d
}

// Scale is the calibrated factor Degradation multiplies onto job i's
// table values on device d: 1 when uncalibrated (x·1 is x, bit for
// bit).
func (p *Predictor) Scale(i int, d apu.Device) float64 {
	if p.scale == nil {
		return 1
	}
	return p.scale[i][d]
}

// table returns the pair table of CPU job cj beside GPU job gj, fetching
// it from the characterization — which builds it if no batch has met
// the pair before — on the predictor's first query of the pair.
func (p *Predictor) table(cj, gj int) *pairTable {
	n := len(p.rows[apu.CPU])
	if uint(cj) >= uint(n) || uint(gj) >= uint(n) {
		panic(fmt.Sprintf("model: pair-table query for jobs (%d,%d) of %d", cj, gj, n))
	}
	k := cj*n + gj
	if t := p.tabs[k].Load(); t != nil {
		return t
	}
	t, built := p.Char.pairTable(p.rows[apu.CPU][cj], p.rows[apu.GPU][gj])
	p.tabs[k].Store(t)
	if built {
		p.misses.Add(1)
	} else {
		p.hits.Add(1)
	}
	return t
}

// PairDegradations returns the pair table of CPU job cj beside GPU job
// gj as two flat rows: cpu[fc*ng+fg] and gpu[fc*ng+fg] are the CPU and
// the GPU job's degradations with the CPU at level fc and the GPU at
// fg, before Scale. A planner that reads a pair at many operating
// points takes the rows once instead of calling Degradation per point.
func (p *Predictor) PairDegradations(cj, gj int) (cpu, gpu []float64, ng int) {
	t := p.table(cj, gj)
	k := t.nc * t.ng
	return t.vals[:k:k], t.vals[k:], t.ng
}

// Feasible returns the cap-feasible operating points of CPU job cj
// beside GPU job gj under the package cap and the plane caps at
// traversal stride, as the planner that first traversed that program
// pair under them kept them (KeepFeasible). ok is false when no list is
// resident. The list is shared: callers must not modify it.
func (p *Predictor) Feasible(cj, gj int, cap units.Watts, planes apu.DomainCaps, stride int) ([]apu.FreqPair, bool) {
	return p.Char.feasibleList(p.listKey(cj, gj, planes, stride), cap)
}

// KeepFeasible makes pts the pair's feasible list under the caps and
// stride for every later predictor over the same characterization, and
// returns the resident list — pts, or an equal list a concurrent
// planner kept first.
func (p *Predictor) KeepFeasible(cj, gj int, cap units.Watts, planes apu.DomainCaps, stride int, pts []apu.FreqPair) []apu.FreqPair {
	return p.Char.keepFeasibleList(p.listKey(cj, gj, planes, stride), cap, pts)
}

func (p *Predictor) listKey(cj, gj int, planes apu.DomainCaps, stride int) listKey {
	return listKey{rows: [apu.NumDevices]*row{p.rows[apu.CPU][cj], p.rows[apu.GPU][gj]}, planes: planes, stride: stride}
}

// CacheStats reports where a predictor's pair tables came from.
type CacheStats struct {
	// Hits counts the pairs whose table was resident in the
	// characterization when the predictor first needed it.
	Hits uint64
	// Misses counts the pairs whose table the predictor had to build:
	// zero for every batch of programs the characterization has planned
	// before.
	Misses uint64
}

// Stats returns a snapshot of the predictor's counters.
func (p *Predictor) Stats() CacheStats {
	return CacheStats{Hits: p.hits.Load(), Misses: p.misses.Load()}
}

// CachedPredictor and NewCachedPredictor are kept only because the
// benchmark's probe (bench/corunmark/probe), a separate module whose
// sources stay fixed across changes to this one, binds to these names
// and to Stats: the predictor itself reads the pair tables, so the type
// is Predictor and the constructor returns its argument. Nothing in
// this module calls NewCachedPredictor.
type CachedPredictor = Predictor

// NewCachedPredictor returns p; see CachedPredictor.
func NewCachedPredictor(p *Predictor, _ *apu.Config) (*CachedPredictor, error) { return p, nil }

// GroundTruthOracle answers the same queries as Predictor but by
// actually measuring pairwise co-runs on the simulator (memoized). It
// is the "perfect model" arm of the model-vs-oracle ablation: feeding
// it to the scheduler isolates scheduling error from prediction error.
// It has no pair tables, so a planner asks it point by point.
type GroundTruthOracle struct {
	profiled
	Batch []*workload.Instance

	mu   sync.Mutex
	memo map[gtKey]float64
	// solo memoizes the standalone runs the measurements divide by,
	// one per job, device and frequency pair rather than one per
	// partner: the key is gtKey{i, dev, cpuFreq, -1, gpuFreq}.
	solo map[gtKey]units.Seconds
}

type gtKey struct {
	i   int
	dev apu.Device
	f   int
	j   int
	g   int
}

// NewGroundTruthOracle builds the oracle over a profiled batch.
func NewGroundTruthOracle(prof *profile.Standalone, batch []*workload.Instance) (*GroundTruthOracle, error) {
	if prof == nil {
		return nil, fmt.Errorf("model: nil profile")
	}
	if len(batch) != prof.NumJobs() {
		return nil, fmt.Errorf("model: batch size %d does not match profile %d", len(batch), prof.NumJobs())
	}
	return &GroundTruthOracle{profiled: profiled{prof}, Batch: batch, memo: map[gtKey]float64{}, solo: map[gtKey]units.Seconds{}}, nil
}

// Degradation measures the true degradation by simulation.
func (o *GroundTruthOracle) Degradation(i int, dev apu.Device, f, j, g int) float64 {
	key := gtKey{i, dev, f, j, g}
	o.mu.Lock()
	if v, ok := o.memo[key]; ok {
		o.mu.Unlock()
		return v
	}
	o.mu.Unlock()
	cf, gf := f, g
	if dev == apu.GPU {
		cf, gf = g, f
	}
	val := 10.0 // maximal pessimism when measurement fails
	opts := sim.Options{Cfg: o.Prof.Cfg, Mem: o.Prof.Mem}
	if solo, err := o.soloTime(opts, i, dev, cf, gf); err == nil {
		if res, err := sim.CoRunWithSolo(opts, o.Batch[i], dev, o.Batch[j], cf, gf, solo); err == nil {
			val = res.Degradation
		}
	}
	o.mu.Lock()
	o.memo[key] = val
	o.mu.Unlock()
	return val
}

// soloTime is job i's standalone wall time on dev at the frequency
// pair (cf, gf), measured once.
func (o *GroundTruthOracle) soloTime(opts sim.Options, i int, dev apu.Device, cf, gf int) (units.Seconds, error) {
	key := gtKey{i, dev, cf, -1, gf}
	o.mu.Lock()
	t, ok := o.solo[key]
	o.mu.Unlock()
	if ok {
		return t, nil
	}
	t, err := sim.SoloTime(opts, o.Batch[i], dev, cf, gf)
	if err != nil {
		return 0, err
	}
	o.mu.Lock()
	o.solo[key] = t
	o.mu.Unlock()
	return t, nil
}
