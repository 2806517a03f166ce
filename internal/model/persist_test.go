package model

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/units"
)

func TestCharacterizationSaveLoadRoundTrip(t *testing.T) {
	c, cfg, _ := smallChar(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCharacterization(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded characterization predicts identically.
	for _, tc := range []struct {
		dev        apu.Device
		cbw, gbw   float64
		cghz, gghz float64
	}{
		{apu.CPU, 6, 7, 3.6, 1.25},
		{apu.GPU, 6, 7, 3.6, 1.25},
		{apu.CPU, 9.5, 2.0, 2.0, 0.6},
		{apu.GPU, 1.0, 10.5, 1.2, 0.35},
	} {
		want := c.Degradation(tc.dev, tc.cbw, tc.gbw, tc.cghz, tc.gghz)
		got := back.Degradation(tc.dev, tc.cbw, tc.gbw, tc.cghz, tc.gghz)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%v at (%v,%v,%v,%v): loaded %v vs original %v",
				tc.dev, tc.cbw, tc.gbw, tc.cghz, tc.gghz, got, want)
		}
	}
}

// TestCharacterizeWorkersDoNotChangeTheResult: the surfaces are
// measured on a worker pool, and the saved characterization must be
// byte-for-byte the one a single worker produces (default 3x3
// frequency grid, so the workers have nine surfaces to split).
func TestCharacterizeWorkersDoNotChangeTheResult(t *testing.T) {
	saved := func(workers int) []byte {
		c, err := characterize(CharacterizeOptions{
			Cfg: apu.DefaultConfig(), Mem: memsys.Default(),
			Levels: []units.GBps{0, 2.75, 5.5, 8.25, 11},
		}, workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := saved(1)
	for _, workers := range []int{2, 4, 64} {
		if !bytes.Equal(saved(workers), serial) {
			t.Errorf("%d workers saved a different characterization than 1", workers)
		}
	}
}

func TestSaveRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Characterization{}).Save(&buf); err == nil {
		t.Error("empty characterization saved")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cfg := apu.DefaultConfig()
	cases := []string{
		"not json",
		`{"version": 99, "cpu_levels": [0], "gpu_levels": [0], "surfaces": [[]]}`,
		`{"version": 1, "cpu_levels": [99], "gpu_levels": [0], "surfaces": [[]]}`,
		`{"version": 1, "cpu_levels": [0, 15], "gpu_levels": [0], "surfaces": [[]]}`,
		`{"version": 1, "cpu_levels": [0], "gpu_levels": [0], "surfaces": [[null]]}`,
		`{"version": 1, "cpu_levels": [0], "gpu_levels": [0],
		  "surfaces": [[{"CPUFreq":0,"GPUFreq":0,"CPUBW":[],"GPUBW":[],"DegCPU":[],"DegGPU":[]}]]}`,
		`{"version": 1, "cpu_levels": [0], "gpu_levels": [0],
		  "surfaces": [[{"CPUFreq":0,"GPUFreq":0,"CPUBW":[2,1],"GPUBW":[1],"DegCPU":[[0],[0]],"DegGPU":[[0],[0]]}]]}`,
	}
	for i, c := range cases {
		if _, err := LoadCharacterization(strings.NewReader(c), cfg); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestLoadedCharacterizationDrivesPredictor(t *testing.T) {
	c, cfg, mem := smallChar(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCharacterization(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = mem
	if _, err := NewPredictor(back, nil); err == nil {
		t.Error("predictor accepted nil profile")
	}
}
