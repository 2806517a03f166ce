package kernelsim_test

import (
	"math"
	"testing"

	"corun/internal/apu"
	"corun/internal/kernelsim"
	"corun/internal/memsys"
	"corun/internal/units"
	"corun/internal/workload"
)

// threeLoops is the solo profile as three separate passes over the
// phases, one per statistic, each recomputing every phase's demand,
// grant and rate: the reference Solo's single pass must reproduce.
func threeLoops(p *kernelsim.Program, d apu.Device, f units.GHz, mem *memsys.Model, scale float64) kernelsim.SoloRun {
	solo := memsys.SoloGPU
	if d == apu.CPU {
		solo = memsys.SoloCPU
	}
	rate := func(ph kernelsim.Phase) float64 {
		demand := units.GBps(p.PotentialRate(d, f) * ph.BytesPerOp)
		return kernelsim.RateGivenGrant(p.PotentialRate(d, f), ph.BytesPerOp, mem.Solo(solo, demand))
	}
	r0 := p.PotentialRate(d, f)

	total := 0.0
	for _, ph := range p.Phases {
		total += float64(p.Work) * scale * ph.Frac / rate(ph)
	}

	timeTotal, busyTotal := 0.0, 0.0
	for _, ph := range p.Phases {
		r := rate(ph)
		t := ph.Frac / r
		timeTotal += t
		busyTotal += t * r / r0
	}

	bwTime, bytesTotal := 0.0, 0.0
	for _, ph := range p.Phases {
		bwTime += ph.Frac / rate(ph)
		bytesTotal += ph.Frac * ph.BytesPerOp
	}

	return kernelsim.SoloRun{
		Time:      units.Seconds(total),
		Bandwidth: units.GBps(bytesTotal / bwTime),
		Util:      busyTotal / timeTotal,
	}
}

// TestSoloIsThreeLoops pins the one-pass solo profile to the three-pass
// reference bit for bit, over every benchmark program on both devices
// at every level of the default machine and three input scales. The
// profiler's tables, and through them every plan, are built from these
// bits.
func TestSoloIsThreeLoops(t *testing.T) {
	cfg, mem := apu.DefaultConfig(), memsys.Default()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	checked := 0
	for _, p := range workload.Programs() {
		for d := apu.CPU; d <= apu.GPU; d++ {
			for lvl := 0; lvl < cfg.NumFreqs(d); lvl++ {
				f := cfg.Freq(d, lvl)
				for _, scale := range []float64{0.8, 1, 1.3} {
					got, want := p.Solo(d, f, mem, scale), threeLoops(p, d, f, mem, scale)
					if !same(float64(got.Time), float64(want.Time)) || !same(float64(got.Bandwidth), float64(want.Bandwidth)) || !same(got.Util, want.Util) {
						t.Errorf("%s on %v at %v GHz, scale %v: one pass %+v, three loops %+v", p.Name, d, f, scale, got, want)
					}
					if got.Time != p.StandaloneTime(d, f, mem, scale) || got.Bandwidth != p.AvgStandaloneBandwidth(d, f, mem) || got.Util != p.StandaloneUtilization(d, f, mem) {
						t.Errorf("%s on %v at %v GHz, scale %v: an accessor disagrees with Solo", p.Name, d, f, scale)
					}
					checked++
				}
			}
		}
	}
	if want := len(workload.Names()) * (cfg.NumFreqs(apu.CPU) + cfg.NumFreqs(apu.GPU)) * 3; checked != want || checked == 0 {
		t.Fatalf("checked %d points, want %d", checked, want)
	}
}
