package model

import (
	"encoding/binary"
	"math"
	"sync"

	"corun/internal/apu"
	"corun/internal/profile"
)

// maxLadders bounds the pair-table cache: at most this many distinct
// bandwidth ladders are resident per device, and therefore at most
// maxLadders² pair tables (≈10 MB at 16×10 DVFS levels). The named
// benchmarks need 8 ladders per device; only a stream of distinct
// custom programs reaches the bound, and then the cache is dropped
// whole and refills from the programs still arriving.
const maxLadders = 64

// ladder is half of what Characterization.Degradation reads for a
// program pair: one program's standalone bandwidth at every DVFS level
// of one device, beside the clocks of those levels. Ladders are
// interned by content — never by job index, program pointer or name —
// so two jobs running the same program at different input scales share
// one, and a ladder's address identifies it.
type ladder struct {
	ghz []float64
	bw  []float64
}

// pairTable holds Characterization.Degradation (clamped at zero, as
// Predictor.Degradation clamps it) of one CPU-side ladder beside one
// GPU-side ladder at every frequency pair. It is immutable once built.
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

// pairCache is the characterization's memo of its own pure function.
// Its zero value is an empty, usable cache. Tables depend on nothing
// but the characterization and the two ladders, so they are valid
// under every cap, policy and batch, and are dropped only with the
// characterization (or wholesale, at the bound).
type pairCache struct {
	mu      sync.Mutex
	ladders [apu.NumDevices]map[string]*ladder
	tables  map[[2]*ladder]*pairTable
	// interpolations counts the staged interpolations computed into
	// tables since the characterization was made.
	interpolations uint64
}

// PairCacheStats is a snapshot of the characterization's pair-table
// cache.
type PairCacheStats struct {
	// Tables is the number of pair tables resident.
	Tables int
	// Interpolations is the number of staged interpolations computed
	// so far; it stops growing once every program pair in service has
	// its table.
	Interpolations uint64
}

// PairCacheStats reports the cache's size and the work it has done.
func (c *Characterization) PairCacheStats() PairCacheStats {
	pc := &c.pairs
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PairCacheStats{Tables: len(pc.tables), Interpolations: pc.interpolations}
}

// internLadder returns the resident ladder of job i on device d,
// adding it if this is the first job seen with that content.
func (c *Characterization) internLadder(prof *profile.Standalone, i int, d apu.Device) *ladder {
	n := prof.Cfg.NumFreqs(d)
	var buf [512]byte // 32 levels before the key spills to the heap
	key := buf[:0]
	for f := 0; f < n; f++ {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(float64(prof.Cfg.Freq(d, f))))
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(float64(prof.Bandwidth(i, d, f))))
	}
	pc := &c.pairs
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if l, ok := pc.ladders[d][string(key)]; ok {
		return l
	}
	if len(pc.ladders[d]) >= maxLadders {
		pc.drop()
	}
	l := &ladder{ghz: make([]float64, n), bw: make([]float64, n)}
	for f := 0; f < n; f++ {
		l.ghz[f] = float64(prof.Cfg.Freq(d, f))
		l.bw[f] = float64(prof.Bandwidth(i, d, f))
	}
	if pc.ladders[d] == nil {
		pc.ladders[d] = map[string]*ladder{}
	}
	pc.ladders[d][string(key)] = l
	return l
}

// drop empties the cache. Views built before the drop keep the ladders
// and tables they already hold (both immutable), so nothing they
// answer changes; whatever they look up next is rebuilt.
func (pc *pairCache) drop() {
	pc.ladders = [apu.NumDevices]map[string]*ladder{}
	pc.tables = nil
}

// pairTable returns the table of CPU-side ladder cl beside GPU-side
// ladder gl, building it on first use. built reports whether this call
// had to compute it.
func (c *Characterization) pairTable(cl, gl *ladder) (t *pairTable, built bool) {
	key := [2]*ladder{cl, gl}
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
	fresh := c.buildPairTable(cl, gl)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.interpolations += uint64(len(fresh.vals))
	if t, ok := pc.tables[key]; ok {
		return t, true
	}
	// Ladders of a dropped generation can still arrive here through a
	// live view, so the table count is bounded on its own.
	if len(pc.tables) >= maxLadders*maxLadders {
		pc.drop()
	}
	if pc.tables == nil {
		pc.tables = map[[2]*ladder]*pairTable{}
	}
	pc.tables[key] = fresh
	return fresh, true
}

// buildPairTable evaluates the staged interpolation at every frequency
// pair, for both sides: Degradation's own two stages over cuts taken
// once per level instead of once per pair of levels — a level's place
// between the characterized frequencies, and its bandwidth's place in
// each surface's grid, do not depend on the level across the table.
func (c *Characterization) buildPairTable(cl, gl *ladder) *pairTable {
	nc, ng := len(cl.bw), len(gl.bw)
	na, nb := len(c.cpuFreqGHz), len(c.gpuFreqGHz)
	// freq[f] cuts the characterized frequencies at level f's clock;
	// bw[(f*na+a)*nb+b] cuts surface (a, b)'s bandwidth grid at level
	// f's bandwidth.
	type axis struct{ freq, bw []cut }
	cuts := func(l *ladder, ghz []float64, grid func(*Surface) []float64) axis {
		ax := axis{freq: make([]cut, len(l.bw)), bw: make([]cut, len(l.bw)*na*nb)}
		for f := range l.bw {
			ax.freq[f] = bracket(ghz, l.ghz[f])
			for a := 0; a < na; a++ {
				for b := 0; b < nb; b++ {
					ax.bw[(f*na+a)*nb+b] = bracket(grid(c.Surfaces[a][b]), l.bw[f])
				}
			}
		}
		return ax
	}
	cpu := cuts(cl, c.cpuFreqGHz, func(s *Surface) []float64 { return s.CPUBW })
	gpu := cuts(gl, c.gpuFreqGHz, func(s *Surface) []float64 { return s.GPUBW })

	t := &pairTable{nc: nc, ng: ng, vals: make([]float64, apu.NumDevices*nc*ng)}
	for side := apu.CPU; side <= apu.GPU; side++ {
		row := t.vals[int(side)*nc*ng:]
		for fc := 0; fc < nc; fc++ {
			for fg := 0; fg < ng; fg++ {
				d := acrossSurfaces(cpu.freq[fc], gpu.freq[fg], func(a, b int) float64 {
					return bilerp(c.Surfaces[a][b].side(side), cpu.bw[(fc*na+a)*nb+b], gpu.bw[(fg*na+a)*nb+b])
				})
				if d < 0 { // as Predictor.Degradation clamps
					d = 0
				}
				row[fc*ng+fg] = d
			}
		}
	}
	return t
}
