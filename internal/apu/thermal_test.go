package apu

import (
	"math"
	"testing"

	"corun/internal/units"
)

// Table-driven step response of the RC model against hand-computed
// golden values. With R = 2 C/W, C = 5 J/C, Tamb = 25 C the time
// constant is R*C = 10 s and the steady state at 10 W is
// 25 + 10*2 = 45 C; from 25 C the response is
//
//	T(t) = 45 - 20 * exp(-t/10)
//
// so one tau reaches 45 - 20/e = 37.64241117657..., etc. The golden
// numbers below are computed from that closed form by hand, not by
// calling the code under test.
func TestThermalStepResponseGolden(t *testing.T) {
	p := ThermalParams{AmbientC: 25, RThermal: 2, CThermal: 5, TMaxC: 90}
	cases := []struct {
		name  string
		from  float64
		watts float64
		dt    float64
		want  float64
	}{
		{"one tau from ambient at 10W", 25, 10, 10, 37.642411176571153},
		{"half tau from ambient at 10W", 25, 10, 5, 32.869386805747332},
		{"two tau from ambient at 10W", 25, 10, 20, 42.293294335267746},
		{"five tau is steady state", 25, 10, 50, 44.865241060018291},
		{"cooling from above steady", 65, 10, 10, 52.357588823428847},
		{"zero power decays to ambient", 45, 0, 10, 32.357588823428847},
		{"zero dt is identity", 33.125, 10, 0, 33.125},
		{"already at steady state stays", 45, 10, 7, 45},
	}
	for _, tc := range cases {
		got := p.Step(tc.from, units.Watts(tc.watts), units.Seconds(tc.dt))
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: Step(%v, %vW, %vs) = %.12f, want %.12f",
				tc.name, tc.from, tc.watts, tc.dt, got, tc.want)
		}
	}
}

// Substep invariance: integrating in two half steps must land exactly
// where one full step does — the closed form is exact, not Euler.
func TestThermalStepComposes(t *testing.T) {
	p := ThermalParams{AmbientC: 25, RThermal: 2, CThermal: 5, TMaxC: 90}
	one := p.Step(25, 10, 8)
	two := p.Step(p.Step(25, 10, 4), 10, 4)
	if math.Abs(one-two) > 1e-9 {
		t.Errorf("one 8s step %v != two 4s steps %v", one, two)
	}
}

// Step is SteadyC + (T - SteadyC)·Decay(dt) bit for bit — the form the
// simulator evaluates with a kept Decay — including the steps it leaves
// alone (dt <= 0, the model disabled), where Decay is 1. Every start
// temperature lies within a factor two of every steady state, so T -
// SteadyC is exact and adding SteadyC back gives T itself.
func TestThermalStepIsDecayResponse(t *testing.T) {
	for _, p := range []ThermalParams{
		{AmbientC: 30, RThermal: 1.6, CThermal: 20, TMaxC: 95},
		{AmbientC: 30}, // disabled: no RC pair
	} {
		for _, dt := range []units.Seconds{-1, 0, 1e-9, 0.25, 7.3} {
			for _, from := range []float64{45, 60} {
				for _, w := range []units.Watts{0, 12.5, 32} {
					steady := p.SteadyC(w)
					want := steady + (from-steady)*p.Decay(dt)
					if got := p.Step(from, w, dt); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%+v: Step(%v, %vW, %vs) = %v, decay form %v", p, from, w, dt, got, want)
					}
				}
			}
		}
	}
}

func TestThermalSteadyAndEnabled(t *testing.T) {
	p := ThermalParams{AmbientC: 30, RThermal: 1.6, CThermal: 20, TMaxC: 95}
	if got := p.SteadyC(10); math.Abs(got-46) > 1e-9 {
		t.Errorf("SteadyC(10W) = %v, want 46", got)
	}
	if !p.Enabled() {
		t.Error("configured model reports disabled")
	}
	if (ThermalParams{}).Enabled() {
		t.Error("zero model reports enabled")
	}
	// The default machine must not throttle at its own max power: the
	// trip point has to clear the worst-case steady state.
	cfg := DefaultConfig()
	maxP := cfg.PackagePower(cfg.MaxFreqIndex(CPU), cfg.MaxFreqIndex(GPU), 1, 1, true)
	if s := cfg.Thermal.SteadyC(maxP); s >= cfg.Thermal.TMaxC {
		t.Errorf("default machine steadies at %v C >= TMax %v C", s, cfg.Thermal.TMaxC)
	}
}

func TestThermalValidate(t *testing.T) {
	bad := []ThermalParams{
		{RThermal: -1},
		{TMaxC: -5},
		{TMaxC: 90, RThermal: 1}, // C missing
		{TMaxC: 20, AmbientC: 25, RThermal: 1, CThermal: 10}, // trip below ambient
		{TMaxC: 90, RThermal: 1, CThermal: 10, HysteresisC: -1},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
	if err := (ThermalParams{}).Validate(); err != nil {
		t.Errorf("zero value (disabled) rejected: %v", err)
	}
	if err := DefaultConfig().Thermal.Validate(); err != nil {
		t.Errorf("default thermal rejected: %v", err)
	}
}

// budgetMachine is the default machine's heatsink at a 45 °C trip point:
// R·C = 32 s and P_sus = (45 - 30) / 1.6 = 9.375 W.
var budgetMachine = ThermalParams{AmbientC: 30, RThermal: 1.6, CThermal: 20, TMaxC: 45, HysteresisC: 3}

// checkBudgetCap holds one BudgetCap answer to the rule's properties:
// it lies in [P_sus, cap]; unclipped, a run at it for the horizon lands
// on the trip point; a start at the trip point gets exactly P_sus; and
// neither a warmer start nor a longer horizon raises it.
func checkBudgetCap(t *testing.T, p ThermalParams, t0 float64, horizon units.Seconds, cap units.Watts) {
	t.Helper()
	sus := p.SustainedPower()
	c := p.BudgetCap(t0, horizon, cap)
	if c < sus || c > cap {
		t.Fatalf("BudgetCap(%v, %v, %v) = %v outside [%v, %v]", t0, horizon, cap, c, sus, cap)
	}
	if c > sus && c < cap {
		if end := p.Step(t0, c, horizon); math.Abs(end-p.TMaxC) > 1e-9 {
			t.Errorf("BudgetCap(%v, %v, %v) = %v ends at %.12f °C, want the trip point %v", t0, horizon, cap, c, end, p.TMaxC)
		}
	}
	if got := p.BudgetCap(p.TMaxC, horizon, cap); got != sus {
		t.Errorf("from the trip point, BudgetCap(_, %v, %v) = %v, want P_sus %v", horizon, cap, got, sus)
	}
	if warmer := p.BudgetCap(t0+0.5, horizon, cap); warmer > c {
		t.Errorf("a warmer start %v raised the cap %v -> %v", t0+0.5, c, warmer)
	}
	if longer := p.BudgetCap(t0, horizon*1.5, cap); longer > c {
		t.Errorf("a longer horizon %v raised the cap %v -> %v", horizon*1.5, c, longer)
	}
}

func TestBudgetCap(t *testing.T) {
	p := budgetMachine
	if sus := p.SustainedPower(); sus != 9.375 {
		t.Fatalf("P_sus %v, want 9.375 W", sus)
	}
	for _, t0 := range []float64{20, 30, 33.2, 40, 44.99, 45, 47} {
		for _, h := range []units.Seconds{0.5, 5, 32, 100, 1000} {
			checkBudgetCap(t, p, t0, h, 15)
		}
	}
	// Cold, a 32 s run may spend 15 °C / (1.6 · (e - 1)) = 5.457 W
	// above P_sus; a 100 s run is nearly sustained already.
	if got, want := p.BudgetCap(30, 32, 100), 9.375+15/(1.6*(math.E-1)); math.Abs(float64(got)-want) > 1e-12 {
		t.Errorf("cold 32 s budget %v, want %v", got, want)
	}
	// Wherever the heatsink cannot bind, the cap stands: P_sus at or
	// above it, the model off, or no horizon.
	for _, tc := range []struct {
		name    string
		p       ThermalParams
		horizon units.Seconds
	}{
		{"the preset's 95 °C", ThermalParams{AmbientC: 30, RThermal: 1.6, CThermal: 20, TMaxC: 95}, 60},
		{"no trip point", ThermalParams{AmbientC: 30, RThermal: 1.6, CThermal: 20}, 60},
		{"no horizon", p, 0},
	} {
		if got := tc.p.BudgetCap(44, tc.horizon, 15); got != 15 {
			t.Errorf("%s: BudgetCap = %v, want the cap 15", tc.name, got)
		}
	}
}

// FuzzBudgetCap holds the rule's properties over arbitrary starts,
// horizons and caps.
func FuzzBudgetCap(f *testing.F) {
	f.Add(30.0, 32.0, 15.0)
	f.Add(44.9, 0.25, 15.0)
	f.Add(45.0, 600.0, 9.5)
	f.Add(-40.0, 1e6, 32.0)
	f.Fuzz(func(t *testing.T, t0, horizon, cap float64) {
		p := budgetMachine
		if math.IsNaN(t0) || math.IsInf(t0, 0) || math.Abs(t0) > 1e3 ||
			!(horizon > 0 && horizon < 1e7) || !(cap > float64(p.SustainedPower()) && cap < 1e3) {
			t.Skip()
		}
		checkBudgetCap(t, p, t0, units.Seconds(horizon), units.Watts(cap))
	})
}
