package model

import (
	"math"
	"testing"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/units"
)

func TestKernelDemandMatchesTarget(t *testing.T) {
	cfg := apu.DefaultConfig()
	mem := memsys.Default()
	for _, target := range []units.GBps{1, 4.4, 8.8, 11} {
		p, err := microKernel(target, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []apu.Device{apu.CPU, apu.GPU} {
			f := cfg.Freq(d, cfg.MaxFreqIndex(d))
			got := float64(p.AvgStandaloneBandwidth(d, f, mem))
			if units.RelErr(got, float64(target)) > 1e-9 {
				t.Errorf("target %v on %v: achieved %v", target, d, got)
			}
		}
	}
}

func TestKernelZeroTargetIsComputeOnly(t *testing.T) {
	cfg := apu.DefaultConfig()
	mem := memsys.Default()
	p, err := microKernel(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.AvgStandaloneBandwidth(apu.CPU, 3.6, mem); got != 0 {
		t.Errorf("zero-target kernel moves %v", got)
	}
	if u := p.StandaloneUtilization(apu.CPU, 3.6, mem); math.Abs(u-1) > 1e-12 {
		t.Errorf("zero-target kernel utilization %v, want 1", u)
	}
}

func TestKernelRejectsNegative(t *testing.T) {
	if _, err := microKernel(-1, apu.DefaultConfig()); err == nil {
		t.Error("negative target accepted")
	}
}

// Demand scales with frequency: at half the clock the kernel demands
// half the bandwidth, exactly like the real stressor.
func TestDemandScalesWithFrequency(t *testing.T) {
	cfg := apu.DefaultConfig()
	mem := memsys.Default()
	p, err := microKernel(8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hi := float64(p.AvgStandaloneBandwidth(apu.CPU, 3.6, mem))
	lo := float64(p.AvgStandaloneBandwidth(apu.CPU, 1.8, mem))
	if units.RelErr(lo, hi/2) > 1e-9 {
		t.Errorf("demand at half clock = %v, want %v", lo, hi/2)
	}
}

func TestMicroInstance(t *testing.T) {
	in, err := microInstance(5.5, apu.DefaultConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if in.ID != 42 || in.Scale != 1 || in.Prog == nil {
		t.Errorf("bad instance %+v", in)
	}
}

func TestLevels(t *testing.T) {
	ls := Levels(11, 11)
	if len(ls) != 11 {
		t.Fatalf("Levels(11, 11) has %d entries, want 11", len(ls))
	}
	if ls[0] != 0 || ls[10] != 11 {
		t.Errorf("levels span [%v,%v], want [0,11]", ls[0], ls[10])
	}
	for i := 1; i < len(ls); i++ {
		if ls[i] <= ls[i-1] {
			t.Fatalf("levels not ascending at %d", i)
		}
	}
	if one := Levels(1, 5); len(one) != 1 || one[0] != 0 {
		t.Errorf("Levels(1,5) = %v", one)
	}
}

func TestSensitivitiesApplied(t *testing.T) {
	p, err := microKernel(5, apu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.CPUSens != microCPUSens || p.GPUSens != microGPUSens {
		t.Errorf("sensitivities %v/%v, want %v/%v", p.CPUSens, p.GPUSens, microCPUSens, microGPUSens)
	}
}
