package workload

import (
	"testing"

	"corun/internal/apu"
	"corun/internal/memsys"
)

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenOptions{N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(GenOptions{N: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(GenOptions{N: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Prog.CPUEff != b[i].Prog.CPUEff || len(a[i].Prog.Phases) != len(b[i].Prog.Phases) {
			t.Fatal("same seed gave different programs")
		}
	}
	c, err := Generate(GenOptions{N: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].Prog.CPUEff != c[i].Prog.CPUEff {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

// Generated programs are valid, land in the intended time range on
// their preferred device, and stay under the solo bandwidth caps often
// enough to be schedulable.
func TestGeneratePlausible(t *testing.T) {
	mem := memsys.Default()
	cfg := apu.DefaultConfig()
	fc := cfg.Freq(apu.CPU, cfg.MaxFreqIndex(apu.CPU))
	fg := cfg.Freq(apu.GPU, cfg.MaxFreqIndex(apu.GPU))
	batch, err := Generate(GenOptions{N: 32, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	gpuPref := 0
	for i, in := range batch {
		if in.ID != i {
			t.Fatalf("instance %d has ID %d", i, in.ID)
		}
		if err := in.Prog.Validate(); err != nil {
			t.Fatalf("%s: %v", in.Label, err)
		}
		tc := float64(in.Prog.StandaloneTime(apu.CPU, fc, mem, 1))
		tg := float64(in.Prog.StandaloneTime(apu.GPU, fg, mem, 1))
		best := tc
		if tg < tc {
			best = tg
			gpuPref++
		}
		if best < 15 || best > 100 {
			t.Errorf("%s: preferred time %.1f s outside the plausible range", in.Label, best)
		}
	}
	// Roughly gpuPreferredFrac of the batch is GPU-preferred (0.7 of 32 ~ 22).
	if gpuPref < 16 || gpuPref > 30 {
		t.Errorf("%d/32 GPU-preferred; expected around 22", gpuPref)
	}
}
