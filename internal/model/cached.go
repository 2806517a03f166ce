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
// tables (see pairCache): it maps each job index to the job's two
// bandwidth ladders and answers Degradation with a read of the pair's
// table, so the staged interpolation runs once per program pair for as
// long as the Characterization lives — not once per batch, cap or
// policy. The view itself holds no predictions, only the ladders and
// the table addresses it has already looked up; it is as cheap to make
// as the batch is long, and a new batch simply makes a new one over the
// same Characterization.
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
	// ladders[d][i] is job i's interned ladder on device d.
	ladders [apu.NumDevices][]*ladder
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

// NewCachedPredictor builds the batch's view over base. The ladders are
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
		c.ladders[d] = make([]*ladder, c.n)
		for i := range c.ladders[d] {
			c.ladders[d][i] = c.char.internLadder(pred.Prof, i, d)
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
	if uint(cj) >= uint(c.n) || uint(gj) >= uint(c.n) {
		panic(fmt.Sprintf("model: degradation query for jobs (%d,%d) of %d", i, j, c.n))
	}
	t := c.tabs[cj*c.n+gj].Load()
	if t == nil {
		t = c.lookup(cj, gj)
	}
	d := t.at(dev, fc, fg)
	if c.scale != nil {
		d *= c.scale[i][dev]
	}
	return d
}

// lookup fetches the table of CPU job cj beside GPU job gj from the
// characterization — which builds it if no batch has met the pair
// before — and keeps its address for the view's later queries.
func (c *CachedPredictor) lookup(cj, gj int) *pairTable {
	t, built := c.char.pairTable(c.ladders[apu.CPU][cj], c.ladders[apu.GPU][gj])
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
