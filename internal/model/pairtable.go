package model

import (
	"encoding/binary"
	"math"
	"sync"

	"corun/internal/apu"
	"corun/internal/profile"
	"corun/internal/units"
)

// maxRows bounds the pair-table cache: at most this many distinct
// profile rows are resident per device, and therefore at most maxRows²
// pair tables (≈10 MB at 16×10 DVFS levels). The named benchmarks need
// 8 rows per device; only a stream of distinct custom programs reaches
// the bound, and then the cache is dropped whole and refills from the
// programs still arriving.
const maxRows = 64

// maxFeasibleLists bounds the feasible lists resident at once: enough
// for one list per resident table under a fixed set of caps (≈10 MB at
// 16×10 levels, every point feasible). A list is kept per feasibility
// class (see capClass), so caps that change every epoch — the
// heatsink's budget cap, or the fleet's share pushed at each rebalance
// — add a list only for a class no cap has reached before; at the bound
// the lists alone are dropped whole, and refill from the caps still in
// use.
const maxFeasibleLists = maxRows * maxRows

// row is the scale-free part of one program's standalone profile on
// one device: the clocks, achieved bandwidth and package power at every
// DVFS level. None of it depends on the input scale (the profile's
// power comes from utilisation alone), so two jobs running the same
// program at different input scales share a row. Rows are interned by
// content — never by job index, program pointer or name — together
// with the machine's idle and GPU-host watts, which the power model
// adds to those levels, so a row's address identifies everything a
// pair table or a feasible list is a function of.
type row struct {
	ghz   []float64
	bw    []float64
	power []float64
	idle  float64
}

// pairTable holds Characterization.Degradation (clamped at zero, as
// Predictor.Interpolate clamps it) of one CPU-side row beside one
// GPU-side row at every frequency pair. It is immutable once built.
type pairTable struct {
	nc, ng int
	vals   []float64 // [side][cpuLevel][gpuLevel]
}

// at reads the degradation of the side-`side` job with the CPU at level
// fc and the GPU at level fg.
func (t *pairTable) at(side apu.Device, fc, fg int) float64 {
	if uint(fc) >= uint(t.nc) || uint(fg) >= uint(t.ng) {
		panic("model: frequency level outside the pair table")
	}
	return t.vals[(int(side)*t.nc+fc)*t.ng+fg]
}

// listKey is what a feasible list depends on besides the package cap: a
// CPU-side row beside a GPU-side row, one set of plane caps and one
// traversal stride.
type listKey struct {
	rows   [apu.NumDevices]*row
	planes apu.DomainCaps
	stride int
}

// capClass is one feasibility class of a pair: the package caps in [lo,
// hi) admit the same operating points, so the traversal keeps the same
// list, pts, under each of them. A point fits a cap exactly when its
// predicted package power (the paper's standalone sum,
// profiled.CoRunPower) is at most the cap, so a class runs from the
// highest power among the points that fit to the lowest among those
// that do not.
type capClass struct {
	lo, hi float64
	pts    []apu.FreqPair
}

// classCap is where cap stands among the pair's powers: an uncapped
// cap (zero or less) above every one, in the class of the caps every
// point fits under.
func classCap(cap units.Watts) float64 {
	if cap <= 0 {
		return math.MaxFloat64
	}
	return float64(cap)
}

// classOf returns the bounds of cap's feasibility class for k's pair,
// over every operating point of the pair whatever the stride.
func (k listKey) classOf(cap units.Watts) (lo, hi float64) {
	c := classCap(cap)
	lo, hi = math.Inf(-1), math.Inf(1)
	cr, gr := k.rows[apu.CPU], k.rows[apu.GPU]
	for _, pc := range cr.power {
		for _, pg := range gr.power {
			// profiled.CoRunPower's sum, bit for bit.
			if p := pc + pg - cr.idle; p <= c {
				lo = max(lo, p)
			} else {
				hi = min(hi, p)
			}
		}
	}
	return lo, hi
}

// pairCache is the characterization's memo of its own pure functions.
// Its zero value is an empty, usable cache. Tables depend on nothing
// but the characterization and the two rows, so they are valid under
// every cap, policy and batch; feasible lists depend on the rows, the
// plane caps and the package cap's feasibility class, so each has its
// own. Both are dropped only with the characterization or wholesale,
// at their bounds.
type pairCache struct {
	mu     sync.Mutex
	rows   [apu.NumDevices]map[string]*row
	tables map[[2]*row]*pairTable
	// classes holds the cap-feasible operating points of a row pair, in
	// the planner's traversal order, as the first planner to traverse it
	// under a package cap of each feasibility class recorded them
	// (core.Context is the one builder); classed counts them.
	classes map[listKey][]capClass
	classed int
	// interpolations counts the staged interpolations computed into
	// tables since the characterization was made; traversals the
	// feasible lists traversed into the cache.
	interpolations uint64
	traversals     uint64
}

// PairCacheStats is a snapshot of the characterization's pair-table
// cache.
type PairCacheStats struct {
	// Tables is the number of pair tables resident.
	Tables int
	// FeasibleLists is the number of per-pair, per-class feasible lists
	// resident; at most maxFeasibleLists.
	FeasibleLists int
	// Interpolations is the number of staged interpolations computed
	// so far; it stops growing once every program pair in service has
	// its table.
	Interpolations uint64
	// Traversals is the number of feasible lists traversed so far; it
	// stops growing once every program pair in service has its list
	// under every feasibility class its caps reach.
	Traversals uint64
}

// PairCacheStats reports the cache's size and the work it has done.
func (c *Characterization) PairCacheStats() PairCacheStats {
	pc := &c.pairs
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PairCacheStats{Tables: len(pc.tables), FeasibleLists: pc.classed, Interpolations: pc.interpolations, Traversals: pc.traversals}
}

// internRow returns the resident row of job i on device d, adding it if
// this is the first job seen with that content.
func (c *Characterization) internRow(prof *profile.Standalone, i int, d apu.Device) *row {
	cfg := prof.Cfg
	n := cfg.NumFreqs(d)
	var buf [784]byte // 32 levels before the key spills to the heap
	key := buf[:0]
	f64 := func(v float64) { key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v)) }
	f64(float64(cfg.IdlePower))
	f64(float64(cfg.HostPower(0)))
	for f := 0; f < n; f++ {
		f64(float64(cfg.Freq(d, f)))
		f64(float64(prof.Bandwidth(i, d, f)))
		f64(float64(prof.Power(i, d, f)))
	}
	pc := &c.pairs
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if r, ok := pc.rows[d][string(key)]; ok {
		return r
	}
	if len(pc.rows[d]) >= maxRows {
		pc.drop()
	}
	r := &row{ghz: make([]float64, n), bw: make([]float64, n), power: make([]float64, n), idle: float64(cfg.IdlePower)}
	for f := 0; f < n; f++ {
		r.ghz[f] = float64(cfg.Freq(d, f))
		r.bw[f] = float64(prof.Bandwidth(i, d, f))
		r.power[f] = float64(prof.Power(i, d, f))
	}
	if pc.rows[d] == nil {
		pc.rows[d] = map[string]*row{}
	}
	pc.rows[d][string(key)] = r
	return r
}

// drop empties the cache. Predictors built before the drop keep the
// rows and tables they already hold (both immutable), so nothing they
// answer changes; whatever they look up next is rebuilt.
func (pc *pairCache) drop() {
	pc.rows = [apu.NumDevices]map[string]*row{}
	pc.tables = nil
	pc.classes, pc.classed = nil, 0
}

// pairTable returns the table of CPU-side row cr beside GPU-side row
// gr, building it on first use. built reports whether this call had to
// compute it.
func (c *Characterization) pairTable(cr, gr *row) (t *pairTable, built bool) {
	key := [2]*row{cr, gr}
	pc := &c.pairs
	pc.mu.Lock()
	t, ok := pc.tables[key]
	pc.mu.Unlock()
	if ok {
		return t, false
	}
	// Built outside the lock: two planners may both compute a new
	// pair's table, and the first to finish publishes it — the values
	// are a pure function of the key, so either copy is the table.
	fresh := c.buildPairTable(cr, gr)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.interpolations += uint64(len(fresh.vals))
	if t, ok := pc.tables[key]; ok {
		return t, true
	}
	// Rows of a dropped generation can still arrive here through a live
	// predictor, so the table count is bounded on its own.
	if len(pc.tables) >= maxRows*maxRows {
		pc.drop()
	}
	if pc.tables == nil {
		pc.tables = map[[2]*row]*pairTable{}
	}
	pc.tables[key] = fresh
	return fresh, true
}

// feasibleList returns the resident feasible list of k's pair under
// cap, if any: the one kept for a cap of its feasibility class.
func (c *Characterization) feasibleList(k listKey, cap units.Watts) ([]apu.FreqPair, bool) {
	pc := &c.pairs
	pc.mu.Lock()
	defer pc.mu.Unlock()
	x := classCap(cap)
	for _, cl := range pc.classes[k] {
		if cl.lo <= x && x < cl.hi {
			return cl.pts, true
		}
	}
	return nil, false
}

// keepFeasibleList publishes pts, traversed under cap, as the list of
// k's pair under cap's feasibility class unless another planner got
// there first, and returns the resident list. Like a table, a list is
// a pure function of its key and class, so either copy is the list.
func (c *Characterization) keepFeasibleList(k listKey, cap units.Watts, pts []apu.FreqPair) []apu.FreqPair {
	lo, hi := k.classOf(cap)
	pc := &c.pairs
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.traversals++
	classes := pc.classes[k]
	for _, cl := range classes {
		if cl.lo == lo {
			return cl.pts
		}
	}
	if pc.classed >= maxFeasibleLists {
		pc.classes, pc.classed, classes = nil, 0, nil
	}
	if pc.classes == nil {
		pc.classes = map[listKey][]capClass{}
	}
	pc.classes[k] = append(classes, capClass{lo: lo, hi: hi, pts: pts})
	pc.classed++
	return pts
}

// buildPairTable evaluates the staged interpolation at every frequency
// pair, for both sides: Degradation's own two stages over cuts taken
// once per level instead of once per pair of levels — a level's place
// between the characterized frequencies, and its bandwidth's place in
// each surface's grid, do not depend on the level across the table.
func (c *Characterization) buildPairTable(cr, gr *row) *pairTable {
	nc, ng := len(cr.bw), len(gr.bw)
	na, nb := len(c.cpuFreqGHz), len(c.gpuFreqGHz)
	// freq[f] cuts the characterized frequencies at level f's clock;
	// bw[(f*na+a)*nb+b] cuts surface (a, b)'s bandwidth grid at level
	// f's bandwidth.
	type axis struct{ freq, bw []cut }
	cuts := func(r *row, ghz []float64, grid func(*Surface) []float64) axis {
		ax := axis{freq: make([]cut, len(r.bw)), bw: make([]cut, len(r.bw)*na*nb)}
		for f := range r.bw {
			ax.freq[f] = bracket(ghz, r.ghz[f])
			for a := 0; a < na; a++ {
				for b := 0; b < nb; b++ {
					ax.bw[(f*na+a)*nb+b] = bracket(grid(c.Surfaces[a][b]), r.bw[f])
				}
			}
		}
		return ax
	}
	cpu := cuts(cr, c.cpuFreqGHz, func(s *Surface) []float64 { return s.CPUBW })
	gpu := cuts(gr, c.gpuFreqGHz, func(s *Surface) []float64 { return s.GPUBW })

	t := &pairTable{nc: nc, ng: ng, vals: make([]float64, apu.NumDevices*nc*ng)}
	for side := apu.CPU; side <= apu.GPU; side++ {
		row := t.vals[int(side)*nc*ng:]
		for fc := 0; fc < nc; fc++ {
			for fg := 0; fg < ng; fg++ {
				d := acrossSurfaces(cpu.freq[fc], gpu.freq[fg], func(a, b int) float64 {
					return bilerp(c.Surfaces[a][b].side(side), cpu.bw[(fc*na+a)*nb+b], gpu.bw[(fg*na+a)*nb+b])
				})
				if d < 0 { // as Predictor.Interpolate clamps
					d = 0
				}
				row[fc*ng+fg] = d
			}
		}
	}
	return t
}
