package model

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"corun/internal/apu"
	"corun/internal/kernelsim"
	"corun/internal/memsys"
	"corun/internal/profile"
	"corun/internal/workload"
)

// defaultChar is the characterization a System makes: 3x3 frequency
// grid, so most DVFS levels interpolate between surfaces.
func defaultChar(t *testing.T, cfg *apu.Config, mem *memsys.Model) *Characterization {
	t.Helper()
	c, err := Characterize(CharacterizeOptions{Cfg: cfg, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func predictorOver(t *testing.T, c *Characterization, cfg *apu.Config, mem *memsys.Model, batch []*workload.Instance) *Predictor {
	t.Helper()
	prof, err := profile.Collect(cfg, mem, batch)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := NewPredictor(c, prof)
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

func viewOver(t *testing.T, o Oracle, cfg *apu.Config) *CachedPredictor {
	t.Helper()
	v, err := NewCachedPredictor(o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// sameEverywhere compares got against want, bit for bit, at every
// query the planners can issue.
func sameEverywhere(t *testing.T, what string, got, want Oracle, cfg *apu.Config) {
	t.Helper()
	n := want.NumJobs()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for dev := apu.CPU; dev <= apu.GPU; dev++ {
				for f := 0; f < cfg.NumFreqs(dev); f++ {
					for g := 0; g < cfg.NumFreqs(dev.Other()); g++ {
						w, v := want.Degradation(i, dev, f, j, g), got.Degradation(i, dev, f, j, g)
						if math.Float64bits(w) != math.Float64bits(v) {
							t.Fatalf("%s: Degradation(%d,%v,%d,%d,%d) = %v, raw %v", what, i, dev, f, j, g, v, w)
						}
					}
				}
			}
		}
	}
}

// Three epochs of the Fig. 11 batch at different input scales share one
// characterization: every table value is the float64 the raw predictor
// computes, and after the first epoch nothing is interpolated again —
// the tables key on scale-free profile rows, which neither the scale nor the
// program's address (each epoch gets fresh copies) changes.
func TestPairTablesMatchRawPredictorAcrossEpochs(t *testing.T) {
	cfg, mem := apu.DefaultConfig(), memsys.Default()
	c := defaultChar(t, cfg, mem)
	for epoch, scale := range []float64{1, 0.8123, 1.2999} {
		batch := workload.Batch16()
		for k, in := range batch {
			in.Scale = scale + 0.01*float64(k%3)
		}
		pred := predictorOver(t, c, cfg, mem, batch)
		view := viewOver(t, pred, cfg)
		before := c.PairCacheStats().Interpolations
		sameEverywhere(t, fmt.Sprintf("epoch %d", epoch), view, pred, cfg)
		s := view.Stats()
		if s.Hits+s.Misses != uint64(len(batch)*len(batch)) {
			t.Errorf("epoch %d: %d table lookups for %d pairs", epoch, s.Hits+s.Misses, len(batch)*len(batch))
		}
		switch {
		case epoch == 0 && s.Misses == 0:
			t.Error("first epoch built no table")
		case epoch > 0 && s.Misses != 0:
			t.Errorf("epoch %d built %d tables; the first epoch's should serve it", epoch, s.Misses)
		case epoch > 0 && c.PairCacheStats().Interpolations != before:
			t.Errorf("epoch %d interpolated again", epoch)
		}

		// The calibrated oracle's factor goes on top of the same tables.
		cal, err := NewCalibratedPredictor(pred, CalibrateOptions{Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		sameEverywhere(t, fmt.Sprintf("epoch %d calibrated", epoch), viewOver(t, cal, cfg), cal, cfg)
	}
	// Batch16 is two instances of each of 8 programs.
	if got := c.PairCacheStats().Tables; got != 64 {
		t.Errorf("%d tables resident for 8 distinct programs, want 64", got)
	}
}

// customBatch returns n programs no two of which share a profile row
// (serial numbers them across calls).
func customBatch(t *testing.T, n, serial int) []*workload.Instance {
	t.Helper()
	batch := make([]*workload.Instance, n)
	for i := range batch {
		k := float64(serial + i)
		p := &kernelsim.Program{
			Name: fmt.Sprintf("custom-%d", serial+i), Work: 60,
			CPUEff: 0.6, GPUEff: 2.4, CPUSens: 0.25, GPUSens: 0.1,
			Phases: []kernelsim.Phase{{Frac: 0.7, BytesPerOp: 0.3 + 0.017*k}, {Frac: 0.3, BytesPerOp: 0.2}},
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		batch[i] = &workload.Instance{ID: i, Prog: p, Scale: 1, Label: p.Name}
	}
	return batch
}

// A stream of distinct custom programs longer than the bound: the cache
// never holds more than maxRows rows per device or maxRows²
// tables, and every answer — including those of a view made before the
// cache was dropped — stays exact.
func TestPairCacheBounded(t *testing.T) {
	cfg, mem := apu.DefaultConfig(), memsys.Default()
	c, _, _ := smallChar(t)
	const perBatch = 6
	firstPred := predictorOver(t, c, cfg, mem, customBatch(t, perBatch, 0))
	first := viewOver(t, firstPred, cfg)
	first.Degradation(0, apu.CPU, 3, 1, 2) // one table held, the rest still to look up

	dropped := false
	for serial := perBatch; serial < 2*maxRows; serial += perBatch {
		pred := predictorOver(t, c, cfg, mem, customBatch(t, perBatch, serial))
		before := c.PairCacheStats().Tables
		sameEverywhere(t, fmt.Sprintf("programs %d..", serial), viewOver(t, pred, cfg), pred, cfg)
		after := c.PairCacheStats().Tables
		dropped = dropped || after < before+perBatch*perBatch
		for d := apu.CPU; d <= apu.GPU; d++ {
			if got := len(c.pairs.rows[d]); got > maxRows {
				t.Fatalf("%d %v rows resident, bound %d", got, d, maxRows)
			}
		}
		if after > maxRows*maxRows {
			t.Fatalf("%d tables resident, bound %d", after, maxRows*maxRows)
		}
	}
	if !dropped {
		t.Fatal("the stream never reached the bound")
	}
	sameEverywhere(t, "view older than the drop", first, firstPred, cfg)
}

// One characterization serving two machines whose DVFS ladders differ
// (a fleet node loading another node's file): a row is its clocks as
// much as its bandwidths, so equal bandwidths at different clocks do
// not share tables.
func TestPairTablesKeyOnFrequencyLadder(t *testing.T) {
	cfg, mem := apu.DefaultConfig(), memsys.Default()
	slow := apu.DefaultConfig()
	slow.CPUFreqs = apu.MustFreqLadder(0.8, 3.0, len(cfg.CPUFreqs))
	slow.GPUFreqs = apu.MustFreqLadder(0.3, 1.0, len(cfg.GPUFreqs))
	c := defaultChar(t, cfg, mem)

	batch := workload.Batch8()
	prof, err := profile.Collect(cfg, mem, batch)
	if err != nil {
		t.Fatal(err)
	}
	// The same measured bandwidths, attributed to the slower clocks.
	onSlow := &profile.Standalone{Cfg: slow, Mem: mem, Batch: batch, Entries: prof.Entries}
	for d := apu.CPU; d <= apu.GPU; d++ {
		if c.internRow(prof, 0, d) == c.internRow(onSlow, 0, d) {
			t.Errorf("%v rows of different clocks interned as one", d)
		}
	}
	for _, p := range []*profile.Standalone{prof, onSlow} {
		pred, err := NewPredictor(c, p)
		if err != nil {
			t.Fatal(err)
		}
		sameEverywhere(t, fmt.Sprintf("CPU top clock %v", p.Cfg.Freq(apu.CPU, 15)), viewOver(t, pred, p.Cfg), pred, p.Cfg)
	}
}

// The cache's zero value works — a loaded characterization and one
// written as a literal both start empty and usable — and Save writes
// none of it.
func TestPairCacheZeroValueAndPersistence(t *testing.T) {
	made, cfg, mem := smallChar(t)
	batch := workload.Batch8()
	sameEverywhere(t, "warm-up", viewOver(t, predictorOver(t, made, cfg, mem, batch), cfg), predictorOver(t, made, cfg, mem, batch), cfg)
	if made.PairCacheStats().Tables == 0 {
		t.Fatal("warm-up built no table")
	}

	var buf bytes.Buffer
	if err := made.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	for _, word := range []string{"pairs", "rows", "tables", "feasible", "interpolations"} {
		if strings.Contains(saved, word) {
			t.Errorf("saved characterization mentions %q", word)
		}
	}
	loaded, err := LoadCharacterization(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	literal := &Characterization{
		CPULevels: made.CPULevels, GPULevels: made.GPULevels, Surfaces: made.Surfaces,
		cpuFreqGHz: made.cpuFreqGHz, gpuFreqGHz: made.gpuFreqGHz,
	}
	for name, c := range map[string]*Characterization{"loaded": loaded, "literal": literal} {
		if s := c.PairCacheStats(); s != (PairCacheStats{}) {
			t.Errorf("%s characterization starts with %+v", name, s)
		}
		pred := predictorOver(t, c, cfg, mem, batch)
		sameEverywhere(t, name, viewOver(t, pred, cfg), pred, cfg)
		if c.PairCacheStats().Tables != 64 {
			t.Errorf("%s characterization holds %d tables for 8 programs", name, c.PairCacheStats().Tables)
		}
	}
	var again bytes.Buffer
	if err := made.Save(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != saved {
		t.Error("a warm cache changed what Save writes")
	}
}
