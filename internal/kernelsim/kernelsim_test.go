package kernelsim

import (
	"math"
	"testing"
	"testing/quick"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/units"
)

func testProgram() *Program {
	return &Program{
		Name:   "test",
		Work:   100,
		CPUEff: 0.5,
		GPUEff: 3.0,
		Phases: []Phase{
			{Frac: 0.7, BytesPerOp: 2.0},
			{Frac: 0.3, BytesPerOp: 0.2},
		},
	}
}

func TestValidateAcceptsGood(t *testing.T) {
	if err := testProgram().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Program)
	}{
		{"no name", func(p *Program) { p.Name = "" }},
		{"zero work", func(p *Program) { p.Work = 0 }},
		{"zero cpu eff", func(p *Program) { p.CPUEff = 0 }},
		{"zero gpu eff", func(p *Program) { p.GPUEff = 0 }},
		{"negative sens", func(p *Program) { p.CPUSens = -1 }},
		{"no phases", func(p *Program) { p.Phases = nil }},
		{"zero frac", func(p *Program) { p.Phases[0].Frac = 0 }},
		{"negative bpo", func(p *Program) { p.Phases[0].BytesPerOp = -1 }},
		{"fracs not 1", func(p *Program) { p.Phases[0].Frac = 0.5 }},
	}
	for _, m := range mutations {
		p := testProgram()
		m.mut(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted broken program", m.name)
		}
	}
}

func TestEffAndSens(t *testing.T) {
	p := testProgram()
	p.CPUSens, p.GPUSens = 0.9, 0.1
	if p.Eff(apu.CPU) != 0.5 || p.Eff(apu.GPU) != 3.0 {
		t.Error("Eff returns wrong values")
	}
	if p.Sens(apu.CPU) != 0.9 || p.Sens(apu.GPU) != 0.1 {
		t.Error("Sens returns wrong values")
	}
}

func TestPotentialRateScalesWithFreq(t *testing.T) {
	p := testProgram()
	if got := p.PotentialRate(apu.CPU, 2.0); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("PotentialRate = %v, want 1.0", got)
	}
	if p.PotentialRate(apu.CPU, 3.0) <= p.PotentialRate(apu.CPU, 2.0) {
		t.Error("rate not increasing with frequency")
	}
}

func TestRateGivenGrant(t *testing.T) {
	// Compute-bound: grant ample.
	if got := RateGivenGrant(4, 1, 10); got != 4 {
		t.Errorf("compute-bound rate = %v, want 4", got)
	}
	// Bandwidth-bound: grant scarce.
	if got := RateGivenGrant(4, 2, 4); got != 2 {
		t.Errorf("bandwidth-bound rate = %v, want 2", got)
	}
	// Zero intensity never stalls.
	if got := RateGivenGrant(4, 0, 0); got != 4 {
		t.Errorf("compute-only rate = %v, want 4", got)
	}
}

func TestStandaloneTimeComputeBound(t *testing.T) {
	mem := memsys.Default()
	p := &Program{
		Name: "compute", Work: 90, CPUEff: 1.0, GPUEff: 1.0,
		Phases: []Phase{{Frac: 1, BytesPerOp: 0}},
	}
	// Pure compute at 3 GHz: rate 3 Gops/s, 90 Gops -> 30 s.
	got := p.StandaloneTime(apu.CPU, 3.0, mem, 1)
	if math.Abs(float64(got)-30) > 1e-9 {
		t.Errorf("compute-bound time = %v, want 30 s", got)
	}
	// Doubling the input doubles the time.
	got2 := p.StandaloneTime(apu.CPU, 3.0, mem, 2)
	if math.Abs(float64(got2)-60) > 1e-9 {
		t.Errorf("scaled time = %v, want 60 s", got2)
	}
}

func TestStandaloneTimeBandwidthBound(t *testing.T) {
	mem := memsys.Default()
	soloCap := mem.Params().SoloCapCPU
	p := &Program{
		Name: "stream", Work: 100, CPUEff: 10, GPUEff: 10,
		Phases: []Phase{{Frac: 1, BytesPerOp: 1.0}},
	}
	// At 3 GHz the potential rate is 30 Gops/s needing 30 GB/s, but the
	// solo cap limits the rate to soloCap Gops/s.
	got := p.StandaloneTime(apu.CPU, 3.0, mem, 1)
	want := 100 / soloCap
	if math.Abs(float64(got)-want) > 1e-9 {
		t.Errorf("bandwidth-bound time = %v, want %v", got, want)
	}
}

func TestStandaloneTimeMonotoneInFreq(t *testing.T) {
	mem := memsys.Default()
	p := testProgram()
	prev := units.Seconds(math.Inf(1))
	for _, f := range []units.GHz{1.2, 2.0, 2.8, 3.6} {
		got := p.StandaloneTime(apu.CPU, f, mem, 1)
		if got > prev {
			t.Fatalf("time increased with frequency at %v: %v > %v", f, got, prev)
		}
		prev = got
	}
}

func TestStandaloneUtilization(t *testing.T) {
	mem := memsys.Default()
	compute := &Program{Name: "c", Work: 10, CPUEff: 1, GPUEff: 1,
		Phases: []Phase{{Frac: 1, BytesPerOp: 0}}}
	if got := compute.StandaloneUtilization(apu.CPU, 3.6, mem); math.Abs(got-1) > 1e-9 {
		t.Errorf("compute-only utilization = %v, want 1", got)
	}
	stream := &Program{Name: "s", Work: 10, CPUEff: 10, GPUEff: 10,
		Phases: []Phase{{Frac: 1, BytesPerOp: 1}}}
	got := stream.StandaloneUtilization(apu.CPU, 3.6, mem)
	want := mem.Params().SoloCapCPU / (10 * 3.6)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("stream utilization = %v, want %v", got, want)
	}
}

func TestAvgStandaloneBandwidth(t *testing.T) {
	mem := memsys.Default()
	p := &Program{Name: "b", Work: 10, CPUEff: 1, GPUEff: 1,
		Phases: []Phase{{Frac: 1, BytesPerOp: 2}}}
	// Rate 3.6 Gops/s at 3.6 GHz, demand 7.2 GB/s < solo cap: achieved
	// bandwidth equals demand.
	got := p.AvgStandaloneBandwidth(apu.CPU, 3.6, mem)
	if math.Abs(float64(got)-7.2) > 1e-9 {
		t.Errorf("avg bandwidth = %v, want 7.2", got)
	}
}

// The average bandwidth of a phase-structured program lies between the
// extremes of its phases.
func TestAvgBandwidthBetweenPhaseExtremes(t *testing.T) {
	mem := memsys.Default()
	p := testProgram()
	f := units.GHz(3.6)
	bw := float64(p.AvgStandaloneBandwidth(apu.CPU, f, mem))
	lo := math.Inf(1)
	hi := math.Inf(-1)
	for i := range p.Phases {
		d := p.PotentialRate(apu.CPU, f) * p.Phases[i].BytesPerOp
		d = math.Min(d, mem.Params().SoloCapCPU)
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	if bw < lo-1e-9 || bw > hi+1e-9 {
		t.Errorf("avg bandwidth %v outside phase range [%v,%v]", bw, lo, hi)
	}
}

// Property: standalone time is positive, finite, and inversely
// monotone in frequency for arbitrary valid programs.
func TestStandaloneTimeProperty(t *testing.T) {
	mem := memsys.Default()
	f := func(workRaw, effRaw, bpoRaw uint16, f1Raw, f2Raw uint8) bool {
		p := &Program{
			Name:   "q",
			Work:   units.GOps(float64(workRaw)/65535*200 + 1),
			CPUEff: float64(effRaw)/65535*5 + 0.05,
			GPUEff: 1,
			Phases: []Phase{{Frac: 1, BytesPerOp: float64(bpoRaw) / 65535 * 4}},
		}
		if err := p.Validate(); err != nil {
			return false
		}
		fa := units.GHz(float64(f1Raw)/255*2.4 + 1.2)
		fb := units.GHz(float64(f2Raw)/255*2.4 + 1.2)
		if fa > fb {
			fa, fb = fb, fa
		}
		ta := p.StandaloneTime(apu.CPU, fa, mem, 1)
		tb := p.StandaloneTime(apu.CPU, fb, mem, 1)
		return ta > 0 && !math.IsInf(float64(ta), 0) && tb <= ta+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: utilization is in (0,1] and bandwidth never exceeds the
// solo cap.
func TestUtilizationAndBandwidthBoundsProperty(t *testing.T) {
	mem := memsys.Default()
	f := func(effRaw, bpoRaw, fRaw uint16) bool {
		p := &Program{
			Name:   "q",
			Work:   50,
			CPUEff: float64(effRaw)/65535*6 + 0.05,
			GPUEff: float64(effRaw)/65535*6 + 0.05,
			Phases: []Phase{
				{Frac: 0.5, BytesPerOp: float64(bpoRaw) / 65535 * 4},
				{Frac: 0.5, BytesPerOp: 0.1},
			},
		}
		freq := units.GHz(float64(fRaw)/65535*2.4 + 1.2)
		for _, d := range []apu.Device{apu.CPU, apu.GPU} {
			u := p.StandaloneUtilization(d, freq, mem)
			if u <= 0 || u > 1+1e-9 {
				return false
			}
			bw := float64(p.AvgStandaloneBandwidth(d, freq, mem))
			if bw < 0 || bw > mem.Params().CombinedPeak {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
