package model

import (
	"fmt"
	"sync/atomic"

	"corun/internal/apu"
	"corun/internal/units"
)

// Oracle is the prediction surface the scheduling algorithms consume —
// a structural mirror of core.Oracle, declared here so the model layer
// can wrap any oracle (Predictor, CalibratedPredictor,
// GroundTruthOracle) without importing the scheduling layer.
type Oracle interface {
	NumJobs() int
	StandaloneTime(i int, d apu.Device, f int) units.Seconds
	StandalonePower(i int, d apu.Device, f int) units.Watts
	Degradation(i int, dev apu.Device, f, j, g int) float64
	CoRunPower(i, f, j, g int) units.Watts
	CoRunSplit(i, f, j, g int) apu.PowerSplit
}

// CachedPredictor is one batch's view of the characterization's pair
// cache (see pairCache): it maps each job index to the job's two
// interned profile rows and answers Degradation with a read of the
// pair's table, so the staged interpolation runs once per program pair
// for as long as the Characterization lives — not once per batch, cap
// or policy. It also keeps, per program pair and set of caps, the
// cap-feasible operating points a planner's traversal found (Feasible,
// KeepFeasible), so the power model is asked once per pair and cap
// rather than once per epoch. The view itself holds no predictions,
// only the rows and the table addresses it has already looked up; it
// is as cheap to make as the batch is long, and a new batch simply
// makes a new one over the same Characterization.
//
// Over a CalibratedPredictor the view multiplies the job's learned
// factor onto the shared table value. Over any other oracle (the
// GroundTruthOracle, which memoizes its own measurements) it forwards
// Degradation unchanged. The remaining queries are profile-table reads
// (StandaloneTime/Power, and CoRunPower, their sum) and are always
// forwarded.
//
// It is safe for concurrent use, and so is sharing one Characterization
// between the views of concurrently planned batches.
type CachedPredictor struct {
	base Oracle

	// char is nil when base is not a function of a characterization.
	char *Characterization
	n    int
	// rows[d][i] is job i's interned profile row on device d.
	rows [apu.NumDevices][]*row
	// scale[i][d] is the calibrated factor of job i on device d; nil
	// over an uncalibrated Predictor.
	scale [][]float64
	// tabs[c*n+g] is the table of job c on the CPU beside job g on the
	// GPU, once this view has looked it up.
	tabs []atomic.Pointer[pairTable]

	// hits and misses count the view's table lookups, not its queries:
	// a query for a pair the view already holds is a plain read.
	hits, misses atomic.Uint64
}

// NewCachedPredictor builds the batch's view over base. The rows are
// read from the base oracle's own profile, clocks included, so that the
// view answers exactly what base answers; cfg, the machine that profile
// was collected on, is only checked to be there.
func NewCachedPredictor(base Oracle, cfg *apu.Config) (*CachedPredictor, error) {
	if base == nil {
		return nil, fmt.Errorf("model: nil oracle")
	}
	if cfg == nil {
		return nil, fmt.Errorf("model: nil machine config")
	}
	c := &CachedPredictor{base: base, n: base.NumJobs()}
	var pred *Predictor
	switch b := base.(type) {
	case *Predictor:
		pred = b
	case *CalibratedPredictor:
		pred, c.scale = b.Predictor, b.scale
	default:
		return c, nil
	}
	c.char = pred.Char
	for d := apu.CPU; d <= apu.GPU; d++ {
		c.rows[d] = make([]*row, c.n)
		for i := range c.rows[d] {
			c.rows[d][i] = c.char.internRow(pred.Prof, i, d)
		}
	}
	c.tabs = make([]atomic.Pointer[pairTable], c.n*c.n)
	return c, nil
}

// NumJobs delegates to the base oracle.
func (c *CachedPredictor) NumJobs() int { return c.base.NumJobs() }

// StandaloneTime delegates to the base oracle (a table read).
func (c *CachedPredictor) StandaloneTime(i int, d apu.Device, f int) units.Seconds {
	return c.base.StandaloneTime(i, d, f)
}

// StandalonePower delegates to the base oracle (a table read).
func (c *CachedPredictor) StandalonePower(i int, d apu.Device, f int) units.Watts {
	return c.base.StandalonePower(i, d, f)
}

// Degradation reads the base oracle's prediction out of the pair's
// table.
func (c *CachedPredictor) Degradation(i int, dev apu.Device, f, j, g int) float64 {
	if c.char == nil {
		return c.base.Degradation(i, dev, f, j, g)
	}
	cj, fc, gj, fg := i, f, j, g
	if dev == apu.GPU {
		cj, fc, gj, fg = j, g, i, f
	}
	return c.table(cj, gj).at(dev, fc, fg) * c.DegradationScale(i, dev)
}

// table returns the pair table of CPU job cj beside GPU job gj.
func (c *CachedPredictor) table(cj, gj int) *pairTable {
	if uint(cj) >= uint(c.n) || uint(gj) >= uint(c.n) {
		panic(fmt.Sprintf("model: pair-table query for jobs (%d,%d) of %d", cj, gj, c.n))
	}
	if t := c.tabs[cj*c.n+gj].Load(); t != nil {
		return t
	}
	return c.lookup(cj, gj)
}

// DegradationScale is the calibrated factor Degradation multiplies onto
// job i's table values on device d: 1 over an uncalibrated predictor
// (x·1 is x, bit for bit).
func (c *CachedPredictor) DegradationScale(i int, d apu.Device) float64 {
	if c.scale == nil {
		return 1
	}
	return c.scale[i][d]
}

// PairDegradations returns the pair table of CPU job cj beside GPU job
// gj as two flat rows: cpu[fc*ng+fg] and gpu[fc*ng+fg] are the CPU and
// the GPU job's degradations with the CPU at level fc and the GPU at
// fg, before DegradationScale. A planner that reads a pair at many
// operating points takes the rows once instead of calling Degradation
// per point. ok is false over an oracle without tables.
func (c *CachedPredictor) PairDegradations(cj, gj int) (cpu, gpu []float64, ng int, ok bool) {
	if c.char == nil {
		return nil, nil, 0, false
	}
	t := c.table(cj, gj)
	k := t.nc * t.ng
	return t.vals[:k:k], t.vals[k:], t.ng, true
}

// Feasible returns the cap-feasible operating points of CPU job cj
// beside GPU job gj under the effective caps (package entry merged with
// the package cap) at traversal stride, as the planner that first
// traversed that program pair under them kept them (KeepFeasible). ok
// is false when no list is resident, and always over an oracle without
// a characterization. The list is shared: callers must not modify it.
func (c *CachedPredictor) Feasible(cj, gj int, caps apu.DomainCaps, stride int) ([]apu.FreqPair, bool) {
	if c.char == nil {
		return nil, false
	}
	return c.char.feasibleList(c.feasibleKey(cj, gj, caps, stride))
}

// KeepFeasible makes pts the pair's feasible list under the caps and
// stride for every later view over the same characterization, and
// returns the resident list — pts, or an equal list a concurrent
// planner kept first. Over an oracle without a characterization it
// keeps nothing and returns pts.
func (c *CachedPredictor) KeepFeasible(cj, gj int, caps apu.DomainCaps, stride int, pts []apu.FreqPair) []apu.FreqPair {
	if c.char == nil {
		return pts
	}
	return c.char.keepFeasibleList(c.feasibleKey(cj, gj, caps, stride), pts)
}

func (c *CachedPredictor) feasibleKey(cj, gj int, caps apu.DomainCaps, stride int) feasibleKey {
	return feasibleKey{rows: [apu.NumDevices]*row{c.rows[apu.CPU][cj], c.rows[apu.GPU][gj]}, caps: caps, stride: stride}
}

// lookup fetches the table of CPU job cj beside GPU job gj from the
// characterization — which builds it if no batch has met the pair
// before — and keeps its address for the view's later queries.
func (c *CachedPredictor) lookup(cj, gj int) *pairTable {
	t, built := c.char.pairTable(c.rows[apu.CPU][cj], c.rows[apu.GPU][gj])
	c.tabs[cj*c.n+gj].Store(t)
	if built {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return t
}

// CoRunPower delegates to the base oracle: the paper's power model is
// the sum of two standalone-power table reads.
func (c *CachedPredictor) CoRunPower(i, f, j, g int) units.Watts {
	return c.base.CoRunPower(i, f, j, g)
}

// CacheStats reports where a view's pair tables came from.
type CacheStats struct {
	// Hits counts the pairs whose table was resident in the
	// characterization when the view first needed it.
	Hits uint64
	// Misses counts the pairs whose table the view had to build: zero
	// for every batch of programs the characterization has planned
	// before.
	Misses uint64
	// Entries is the number of table values the view reads without
	// going back to the characterization.
	Entries int
}

// Stats returns a snapshot of the view's counters. A view over an
// oracle without tables reports zeros.
func (c *CachedPredictor) Stats() CacheStats {
	s := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for k := range c.tabs {
		if t := c.tabs[k].Load(); t != nil {
			s.Entries += len(t.vals)
		}
	}
	return s
}
