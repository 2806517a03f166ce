package model

import (
	"testing"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/profile"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// Calibration must shrink the model's dominant error: dwt2d's learned
// CPU-side scale is well above 1, and the mean prediction error over
// real pairs drops versus the base model.
func TestCalibratedPredictorImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("full characterization for -short")
	}
	cfg := apu.DefaultConfig()
	mem := memsysDefault()
	char, err := Characterize(CharacterizeOptions{Cfg: cfg, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	batch := workload.Batch8()
	prof, err := profile.Collect(cfg, mem, batch)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewPredictor(char, prof)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := NewCalibratedPredictor(base, batch)
	if err != nil {
		t.Fatal(err)
	}

	// dwt2d (index 2) is the latency-sensitive outlier: its CPU-side
	// correction must be substantial.
	if s := cal.Scale(2, apu.CPU); s < 1.5 {
		t.Errorf("dwt2d CPU correction %.2f; expected well above 1", s)
	}
	// Well-modelled programs stay near 1.
	if s := cal.Scale(3, apu.GPU); s < 0.4 || s > 2.5 {
		t.Errorf("hotspot GPU correction %.2f; expected near 1", s)
	}

	// Error over all 64 pairs at max frequencies, base vs calibrated.
	cmax, gmax := cfg.MaxFreqIndex(apu.CPU), cfg.MaxFreqIndex(apu.GPU)
	var baseErr, calErr float64
	n := 0
	for i := range batch {
		for j := range batch {
			target := &workload.Instance{ID: 0, Prog: batch[i].Prog, Scale: 1, Label: batch[i].Label}
			co := &workload.Instance{ID: 1, Prog: batch[j].Prog, Scale: 1, Label: batch[j].Label}
			truth, err := sim.CoRun(sim.Options{Cfg: cfg, Mem: mem}, target, apu.CPU, co, cmax, gmax)
			if err != nil {
				t.Fatal(err)
			}
			b := base.Degradation(i, apu.CPU, cmax, j, gmax)
			c := cal.Degradation(i, apu.CPU, cmax, j, gmax)
			baseErr += units.RelErr(1+b, 1+truth.Degradation)
			calErr += units.RelErr(1+c, 1+truth.Degradation)
			n++
		}
	}
	baseErr /= float64(n)
	calErr /= float64(n)
	t.Logf("mean slowdown-factor error: base %.3f, calibrated %.3f", baseErr, calErr)
	if calErr >= baseErr {
		t.Errorf("calibration did not improve the model: %.3f -> %.3f", baseErr, calErr)
	}
}

func TestCalibratedPredictorValidation(t *testing.T) {
	if _, err := NewCalibratedPredictor(nil, nil); err == nil {
		t.Error("nil base accepted")
	}
	cfg := apu.DefaultConfig()
	mem := memsysDefault()
	char, cfgErr := Characterize(CharacterizeOptions{
		Cfg: cfg, Mem: mem,
		Levels:        []units.GBps{0, 5.5, 11},
		CPUFreqLevels: []int{15}, GPUFreqLevels: []int{9},
	})
	if cfgErr != nil {
		t.Fatal(cfgErr)
	}
	batch := workload.Batch8()
	prof, err := profile.Collect(cfg, mem, batch)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewPredictor(char, prof)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCalibratedPredictor(base, batch[:3]); err == nil {
		t.Error("mismatched batch accepted")
	}
}

// memsysDefault keeps the test file self-contained.
func memsysDefault() *memsys.Model { return memsys.Default() }
