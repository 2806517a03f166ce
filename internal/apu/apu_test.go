package apu

import (
	"math"
	"testing"
	"testing/quick"

	"corun/internal/units"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestDefaultFreqTables(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.NumFreqs(CPU); got != 16 {
		t.Errorf("CPU levels = %d, want 16", got)
	}
	if got := cfg.NumFreqs(GPU); got != 10 {
		t.Errorf("GPU levels = %d, want 10", got)
	}
	if got := cfg.Freq(CPU, 0); math.Abs(float64(got)-1.2) > 1e-9 {
		t.Errorf("lowest CPU freq = %v, want 1.2 GHz", got)
	}
	if got := cfg.Freq(CPU, cfg.MaxFreqIndex(CPU)); math.Abs(float64(got)-3.6) > 1e-9 {
		t.Errorf("highest CPU freq = %v, want 3.6 GHz", got)
	}
	if got := cfg.Freq(GPU, 0); math.Abs(float64(got)-0.35) > 1e-9 {
		t.Errorf("lowest GPU freq = %v, want 0.35 GHz", got)
	}
	if got := cfg.Freq(GPU, cfg.MaxFreqIndex(GPU)); math.Abs(float64(got)-1.25) > 1e-9 {
		t.Errorf("highest GPU freq = %v, want 1.25 GHz", got)
	}
}

func TestKaveriConfigValid(t *testing.T) {
	cfg := KaveriConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Kaveri config invalid: %v", err)
	}
	if got := cfg.NumFreqs(CPU); got != 11 {
		t.Errorf("Kaveri CPU levels = %d, want 11", got)
	}
	// A desktop part: max power well above the mobile default but
	// within its own TDP.
	p := cfg.PackagePower(cfg.MaxFreqIndex(CPU), cfg.MaxFreqIndex(GPU), 1, 1, true)
	if p < 35 || p > cfg.TDP {
		t.Errorf("Kaveri max power %v outside (35, TDP=%v)", p, cfg.TDP)
	}
	if cfg.MinFreqCap() >= 45 {
		t.Errorf("Kaveri min co-run power %v should allow a 45 W cap", cfg.MinFreqCap())
	}
}

func TestFreqLadderMonotonic(t *testing.T) {
	fs, err := FreqLadder(0.35, 1.25, 10)
	if err != nil {
		t.Fatalf("FreqLadder: %v", err)
	}
	for i := 1; i < len(fs); i++ {
		if fs[i] <= fs[i-1] {
			t.Fatalf("ladder not ascending at %d: %v <= %v", i, fs[i], fs[i-1])
		}
	}
}

// Degenerate ranges must fail at construction, not survive as a
// descending or single-point table that Validate rejects much later
// with an unrelated-sounding error.
func TestFreqLadderRejectsDegenerate(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi float64
		n      int
	}{
		{"single point", 2.0, 4.0, 1},
		{"zero points", 2.0, 4.0, 0},
		{"negative points", 2.0, 4.0, -3},
		{"descending", 4.0, 2.0, 8},
		{"flat", 2.0, 2.0, 8},
		{"nan lo", math.NaN(), 4.0, 8},
		{"inf hi", 2.0, math.Inf(1), 8},
	}
	for _, tc := range cases {
		if fs, err := FreqLadder(tc.lo, tc.hi, tc.n); err == nil {
			t.Errorf("%s: FreqLadder(%v, %v, %d) = %v, want error", tc.name, tc.lo, tc.hi, tc.n, fs)
		}
	}
}

func TestMustFreqLadderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFreqLadder on a descending range did not panic")
		}
	}()
	MustFreqLadder(4.0, 2.0, 8)
}

func TestDeviceString(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Error("device names wrong")
	}
	if Device(7).String() != "Device(7)" {
		t.Error("unknown device name wrong")
	}
}

func TestDeviceOther(t *testing.T) {
	if CPU.Other() != GPU || GPU.Other() != CPU {
		t.Error("Other() does not flip device")
	}
}

func TestDeviceValid(t *testing.T) {
	if !CPU.Valid() || !GPU.Valid() {
		t.Error("real devices reported invalid")
	}
	if Device(3).Valid() {
		t.Error("bogus device reported valid")
	}
}

func TestDynPowerMonotonic(t *testing.T) {
	cfg := DefaultConfig()
	for d := CPU; d <= GPU; d++ {
		prev := units.Watts(0)
		for i := 0; i < cfg.NumFreqs(d); i++ {
			p := cfg.DynPower(d, i)
			if p <= prev {
				t.Fatalf("%v power not increasing at level %d: %v <= %v", d, i, p, prev)
			}
			prev = p
		}
	}
}

// The calibrated power curve should place the paper's medium operating
// point (2.2 GHz CPU, 0.85 GHz GPU) near the 15-16 W cap region of
// section VI.B.
func TestMediumOperatingPointNearCap(t *testing.T) {
	cfg := DefaultConfig()
	ci := cfg.ClosestFreqIndex(CPU, 2.2)
	gi := cfg.ClosestFreqIndex(GPU, 0.85)
	p := cfg.PackagePower(ci, gi, 1, 1, true)
	if p < 13 || p > 17.5 {
		t.Errorf("medium operating point power = %v, want within [13, 17.5] W", p)
	}
}

// Max-frequency package power must exceed the experiment caps (15-16 W)
// so that the cap is actually binding, but stay within a mobile-part
// envelope (well under TDP + slack).
func TestMaxPowerExceedsExperimentCaps(t *testing.T) {
	cfg := DefaultConfig()
	p := cfg.PackagePower(cfg.MaxFreqIndex(CPU), cfg.MaxFreqIndex(GPU), 1, 1, true)
	if p <= 16 {
		t.Errorf("max package power %v should exceed the 16 W cap", p)
	}
	if p > cfg.TDP {
		t.Errorf("max package power %v exceeds TDP %v", p, cfg.TDP)
	}
}

// Co-running must be feasible at the lowest operating points under the
// paper's 15 W cap, otherwise the cap experiments are degenerate.
func TestMinFreqCapBelow15W(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.MinFreqCap(); got >= 15 {
		t.Errorf("minimum co-run power = %v, want < 15 W", got)
	}
}

func TestActivityPowerBounds(t *testing.T) {
	cfg := DefaultConfig()
	idx := cfg.MaxFreqIndex(CPU)
	full := cfg.ActivityPower(CPU, idx, 1)
	stalled := cfg.ActivityPower(CPU, idx, 0)
	idle := cfg.ActivityPower(CPU, idx, -1)
	if idle != 0 {
		t.Errorf("idle power = %v, want 0", idle)
	}
	if stalled >= full {
		t.Errorf("stalled power %v should be below full power %v", stalled, full)
	}
	wantStalled := units.Watts(float64(full) * cfg.StallPowerFloor)
	if math.Abs(float64(stalled-wantStalled)) > 1e-9 {
		t.Errorf("stalled power = %v, want %v", stalled, wantStalled)
	}
	// Utilization above 1 is clamped.
	if got := cfg.ActivityPower(CPU, idx, 2); got != full {
		t.Errorf("over-utilization power = %v, want clamped to %v", got, full)
	}
}

func TestHostPowerSmall(t *testing.T) {
	cfg := DefaultConfig()
	h := cfg.HostPower(cfg.MaxFreqIndex(CPU))
	d := cfg.DynPower(CPU, cfg.MaxFreqIndex(CPU))
	if h <= 0 || float64(h) > 0.2*float64(d) {
		t.Errorf("host power %v not a small positive fraction of %v", h, d)
	}
}

func TestClosestFreqIndex(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.ClosestFreqIndex(CPU, 1.2); got != 0 {
		t.Errorf("closest to 1.2 GHz = %d, want 0", got)
	}
	if got := cfg.ClosestFreqIndex(CPU, 10); got != cfg.MaxFreqIndex(CPU) {
		t.Errorf("closest to 10 GHz = %d, want max index", got)
	}
	if got := cfg.ClosestFreqIndex(GPU, 0.86); got != cfg.ClosestFreqIndex(GPU, 0.84) {
		t.Errorf("0.86 and 0.84 GHz should map to the same 0.85 level")
	}
	// NaN used to lose every distance comparison and silently resolve
	// to index 0; it must be rejected instead.
	if got := cfg.ClosestFreqIndex(CPU, units.GHz(math.NaN())); got != -1 {
		t.Errorf("ClosestFreqIndex(NaN) = %d, want -1", got)
	}
}

func TestFreqPanicsOutOfRange(t *testing.T) {
	cfg := DefaultConfig()
	defer func() {
		if recover() == nil {
			t.Error("Freq on out-of-range index did not panic")
		}
	}()
	cfg.Freq(CPU, 99)
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"empty cpu freqs", func(c *Config) { c.CPUFreqs = nil }},
		{"non-ascending", func(c *Config) { c.CPUFreqs[3] = c.CPUFreqs[2] }},
		{"negative idle", func(c *Config) { c.IdlePower = -1 }},
		{"zero coeff", func(c *Config) { c.GPUPowerCoeff = 0 }},
		{"bad stall floor", func(c *Config) { c.StallPowerFloor = 1.5 }},
		{"bad host frac", func(c *Config) { c.HostPowerFrac = -0.1 }},
		{"non-positive freq", func(c *Config) { c.GPUFreqs[0] = 0; c.GPUFreqs[1] = 0.1 }},
	}
	for _, m := range mutations {
		cfg := DefaultConfig()
		m.mut(cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken config", m.name)
		}
	}
}

// Property: package power decomposes additively and is monotone in
// utilization for any frequency pair.
func TestPackagePowerProperty(t *testing.T) {
	cfg := DefaultConfig()
	f := func(ciRaw, giRaw uint8, uRaw, vRaw uint16) bool {
		ci := int(ciRaw) % cfg.NumFreqs(CPU)
		gi := int(giRaw) % cfg.NumFreqs(GPU)
		u := float64(uRaw) / 65535
		v := float64(vRaw) / 65535
		lo := cfg.PackagePower(ci, gi, 0, 0, false)
		p := cfg.PackagePower(ci, gi, u, v, false)
		hi := cfg.PackagePower(ci, gi, 1, 1, false)
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: higher frequency never costs less power at equal activity.
func TestPowerMonotoneInFrequencyProperty(t *testing.T) {
	cfg := DefaultConfig()
	f := func(aRaw, bRaw uint8, uRaw uint16) bool {
		for _, d := range []Device{CPU, GPU} {
			a := int(aRaw) % cfg.NumFreqs(d)
			b := int(bRaw) % cfg.NumFreqs(d)
			if a > b {
				a, b = b, a
			}
			u := float64(uRaw) / 65535
			if cfg.ActivityPower(d, a, u) > cfg.ActivityPower(d, b, u)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// DynPower's memo must be invisible: bit-for-bit equal to the direct
// formula on first and repeated reads, and never stale after the
// Config is mutated in place (the memo verifies its inputs per read).
func TestDynPowerMemoTransparent(t *testing.T) {
	cfg := DefaultConfig()
	direct := func(d Device, idx int) units.Watts {
		f := float64(cfg.Freq(d, idx))
		if d == CPU {
			return units.Watts(cfg.CPUPowerCoeff * math.Pow(f, cfg.CPUPowerExp))
		}
		return units.Watts(cfg.GPUPowerCoeff * math.Pow(f, cfg.GPUPowerExp))
	}
	for _, d := range []Device{CPU, GPU} {
		for i := 0; i < cfg.NumFreqs(d); i++ {
			for rep := 0; rep < 2; rep++ {
				if got, want := cfg.DynPower(d, i), direct(d, i); got != want {
					t.Fatalf("%v level %d read %d: memoized %v != direct %v", d, i, rep, got, want)
				}
			}
		}
	}
	// In-place mutations of every memo input: the next read must track.
	cfg.CPUFreqs[3] *= 1.5
	cfg.GPUPowerCoeff *= 2
	cfg.CPUPowerExp = 2.1
	for _, d := range []Device{CPU, GPU} {
		for i := 0; i < cfg.NumFreqs(d); i++ {
			if got, want := cfg.DynPower(d, i), direct(d, i); got != want {
				t.Fatalf("%v level %d after mutation: memoized %v != direct %v", d, i, got, want)
			}
		}
	}
}
