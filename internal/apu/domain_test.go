package apu

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"corun/internal/units"
)

// Property: the per-plane split sums to PackagePower for any operating
// point, utilization, and busy flag (up to float association).
func TestSplitPowerSumsToPackage(t *testing.T) {
	cfg := DefaultConfig()
	f := func(ciRaw, giRaw uint8, uRaw, vRaw uint16, busy bool) bool {
		ci := int(ciRaw) % cfg.NumFreqs(CPU)
		gi := int(giRaw) % cfg.NumFreqs(GPU)
		// Map the raw fuzz into [-0.5, 1): negative means idle.
		u := float64(uRaw)/65535*1.5 - 0.5
		v := float64(vRaw)/65535*1.5 - 0.5
		s := cfg.SplitPower(ci, gi, u, v, busy)
		pkg := cfg.PackagePower(ci, gi, u, v, busy)
		return math.Abs(float64(s.Package()-pkg)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitPowerPlanes(t *testing.T) {
	cfg := DefaultConfig()
	ci, gi := 8, 9
	s := cfg.SplitPower(ci, gi, 1, 1, true)
	if s.Uncore != cfg.IdlePower {
		t.Errorf("uncore = %v, want idle power %v", s.Uncore, cfg.IdlePower)
	}
	wantPP0 := cfg.ActivityPower(CPU, ci, 1) + cfg.HostPower(ci)
	if math.Abs(float64(s.PP0-wantPP0)) > 1e-9 {
		t.Errorf("pp0 = %v, want activity+host %v", s.PP0, wantPP0)
	}
	if got, want := s.PP1, cfg.ActivityPower(GPU, gi, 1); got != want {
		t.Errorf("pp1 = %v, want %v", got, want)
	}
	// An idle GPU with no host thread leaves PP1 at zero.
	idle := cfg.SplitPower(ci, gi, 1, -1, false)
	if idle.PP1 != 0 {
		t.Errorf("idle GPU pp1 = %v, want 0", idle.PP1)
	}
}

// The limit names in metric labels and bench reports: the two planes,
// the package and the thermal throttle.
func TestDomainString(t *testing.T) {
	for c, want := range map[Constraint]string{
		ConstraintNone: "none", ConstraintPP0: "pp0", ConstraintPP1: "pp1",
		ConstraintPackage: "package", ConstraintThermal: "thermal",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestDomainCapsAnyAndAllows(t *testing.T) {
	if (DomainCaps{}).Any() {
		t.Error("zero caps report Any")
	}
	dc := DomainCaps{PP0: 10, PP1: 5}
	if !dc.Any() {
		t.Error("configured caps report !Any")
	}
	if !dc.Allows(PowerSplit{PP0: 10, PP1: 5, Uncore: 100}) {
		t.Error("uncapped package plane rejected a split")
	}
	if dc.Allows(PowerSplit{PP0: 10.1, PP1: 1}) {
		t.Error("pp0 excess allowed")
	}
	if dc.Allows(PowerSplit{PP0: 1, PP1: 5.1}) {
		t.Error("pp1 excess allowed")
	}
}

func TestDomainCapsBinding(t *testing.T) {
	dc := DomainCaps{PP0: 10, PP1: 10}
	c, r := dc.Binding(100, PowerSplit{PP0: 9, PP1: 4, Uncore: 2})
	if c != ConstraintPP0 || math.Abs(r-0.9) > 1e-12 {
		t.Errorf("binding = %v@%v, want pp0@0.9", c, r)
	}
	c, _ = dc.Binding(100, PowerSplit{PP0: 1, PP1: 9.5, Uncore: 2})
	if c != ConstraintPP1 {
		t.Errorf("binding = %v, want pp1", c)
	}
	c, _ = (DomainCaps{}).Binding(10, PowerSplit{PP0: 4, PP1: 4, Uncore: 3})
	if c != ConstraintPackage {
		t.Errorf("binding = %v, want package", c)
	}
	if c, r := (DomainCaps{}).Binding(0, PowerSplit{PP0: 4}); c != ConstraintNone || r != 0 {
		t.Errorf("uncapped binding = %v@%v, want none@0", c, r)
	}
}

// CheckCaps is the single feasibility check every cap entry point
// (corun facade, server API) funnels through; pin its behaviour and
// the neutral "apu:" error text both surfaces return verbatim.
func TestCheckCaps(t *testing.T) {
	cfg := DefaultConfig()
	min := cfg.MinCoRunSplit()
	cases := []struct {
		name    string
		pkg     units.Watts
		dc      DomainCaps
		wantErr string
	}{
		{"uncapped", 0, DomainCaps{}, ""},
		{"feasible package", 15, DomainCaps{}, ""},
		{"feasible domains", 0, DomainCaps{PP0: 5, PP1: 5}, ""},
		{"negative package", -1, DomainCaps{}, "apu: negative power cap"},
		{"package below floor", cfg.MinFreqCap() / 2, DomainCaps{}, "below the machine's minimum co-run power"},
		{"negative pp0", 0, DomainCaps{PP0: -2}, "apu: negative pp0 power cap"},
		{"pp0 below floor", 0, DomainCaps{PP0: min.PP0 / 2}, "minimum pp0 co-run power"},
		{"pp1 below floor", 0, DomainCaps{PP1: min.PP1 / 2}, "minimum pp1 co-run power"},
	}
	for _, tc := range cases {
		err := cfg.CheckCaps(tc.pkg, tc.dc)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// MinCoRunSplit must agree with MinFreqCap: same operating point, same
// total.
func TestMinCoRunSplitMatchesMinFreqCap(t *testing.T) {
	cfg := DefaultConfig()
	if got, want := cfg.MinCoRunSplit().Package(), cfg.MinFreqCap(); math.Abs(float64(got-want)) > 1e-9 {
		t.Errorf("MinCoRunSplit total %v != MinFreqCap %v", got, want)
	}
}
