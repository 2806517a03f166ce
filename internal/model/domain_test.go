package model

import (
	"math"
	"testing"

	"corun/internal/apu"
	"corun/internal/profile"
	"corun/internal/workload"
)

// The plane split must rebuild the package prediction exactly: the
// split is a reattribution of the same watts, not a second model.
func TestCoRunSplitSumsToCoRunPower(t *testing.T) {
	c, cfg, mem := smallChar(t)
	batch := workload.Batch8()
	prof, err := profile.Collect(cfg, mem, batch)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(c, prof)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ i, f, j, g int }{
		{2, cfg.MaxFreqIndex(apu.CPU), 0, cfg.MaxFreqIndex(apu.GPU)},
		{1, 3, 4, 2},
		{2, 5, -1, 0}, // CPU solo
		{-1, 0, 3, 4}, // GPU solo
		{-1, 0, -1, 0},
	}
	for _, tc := range cases {
		s := p.CoRunSplit(tc.i, tc.f, tc.j, tc.g)
		want := p.CoRunPower(tc.i, tc.f, tc.j, tc.g)
		if math.Abs(float64(s.Package()-want)) > 1e-9 {
			t.Errorf("split(%d,%d,%d,%d) sums to %v, CoRunPower says %v",
				tc.i, tc.f, tc.j, tc.g, s.Package(), want)
		}
		if s.Uncore != cfg.IdlePower {
			t.Errorf("uncore %v != idle power %v", s.Uncore, cfg.IdlePower)
		}
		if s.PP0 < 0 || s.PP1 < 0 {
			t.Errorf("negative plane in split %+v", s)
		}
	}
	// Idle planes draw nothing.
	if s := p.CoRunSplit(2, 5, -1, 0); s.PP1 != 0 {
		t.Errorf("idle GPU plane draws %v", s.PP1)
	}
	if s := p.CoRunSplit(-1, 0, 3, 4); s.PP0 != cfg.HostPower(0) {
		t.Errorf("GPU-solo PP0 = %v, want the host thread %v", s.PP0, cfg.HostPower(0))
	}
}
