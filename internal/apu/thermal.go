package apu

import (
	"fmt"
	"math"

	"corun/internal/units"
)

// ThermalParams is a first-order thermal RC model of the package: both
// devices dump their heat into one shared heatsink node (the physical
// reality that makes co-run thermal management interesting — a hot GPU
// steals thermal headroom from the CPU and vice versa, Dev et al.).
// The node's temperature follows
//
//	C dT/dt = P - (T - Tamb) / R
//
// whose exact solution over a step of length dt is
//
//	T' = Tsteady + (T - Tsteady) * exp(-dt / (R*C)),  Tsteady = Tamb + P*R
//
// Step integrates that closed form, so the model is stable for any
// step size the simulator's event loop produces.
type ThermalParams struct {
	// AmbientC is the heatsink's equilibrium temperature at zero
	// power, in degrees Celsius.
	AmbientC float64

	// RThermal is the junction-to-ambient thermal resistance in
	// degrees Celsius per watt: steady-state rise above ambient is
	// P * RThermal.
	RThermal float64

	// CThermal is the lumped heat capacity of die plus heatsink in
	// joules per degree Celsius; R*C is the thermal time constant.
	CThermal float64

	// TMaxC is the throttle trip point in degrees Celsius. Zero
	// disables the thermal model entirely.
	TMaxC float64

	// HysteresisC is how far below TMaxC the temperature must fall
	// before a throttled frequency ceiling is released, preventing
	// trip/release chatter right at the limit.
	HysteresisC float64
}

// Enabled reports whether the thermal model is active: a trip point is
// set and the RC pair is physical.
func (t ThermalParams) Enabled() bool {
	return t.TMaxC > 0 && t.RThermal > 0 && t.CThermal > 0
}

// SteadyC returns the equilibrium temperature at constant power p.
func (t ThermalParams) SteadyC(p units.Watts) float64 {
	return t.AmbientC + float64(p)*t.RThermal
}

// Decay is the step response's memory term exp(-dt / (R*C)): the share
// of the distance to the steady state still left after dt seconds. It is
// 1 when dt <= 0 or the RC pair is not physical, where Step leaves the
// temperature alone.
func (t ThermalParams) Decay(dt units.Seconds) float64 {
	if dt <= 0 || t.RThermal <= 0 || t.CThermal <= 0 {
		return 1
	}
	return math.Exp(-float64(dt) / (t.RThermal * t.CThermal))
}

// Relax is the step response at constant power p for a precomputed
// Decay: a caller stepping by one dt many times computes the exponential
// once.
func (t ThermalParams) Relax(tempC float64, p units.Watts, decay float64) float64 {
	steady := t.SteadyC(p)
	return steady + (tempC-steady)*decay
}

// Step advances the heatsink node from tempC over dt seconds at
// constant power p, using the exact exponential solution of the RC
// equation (stable for any dt).
func (t ThermalParams) Step(tempC float64, p units.Watts, dt units.Seconds) float64 {
	if dt <= 0 || t.RThermal <= 0 || t.CThermal <= 0 {
		return tempC
	}
	return t.Relax(tempC, p, t.Decay(dt))
}

// SustainedPower is P_sus, the highest constant package power the
// heatsink holds below the trip point for ever: its steady state at
// P_sus is TMaxC.
func (t ThermalParams) SustainedPower() units.Watts {
	return units.Watts((t.TMaxC - t.AmbientC) / t.RThermal)
}

// BudgetCap is the planning cap of a run that starts with the heatsink
// at t0 and is expected to last horizon seconds: the constant package
// power that brings the node from t0 to exactly TMaxC at the horizon,
// the closed form of Step(t0, c, horizon) = TMaxC,
//
//	c = P_sus + (TMaxC - t0) / (R·(e^{horizon/(R·C)} - 1)),
//
// clipped to [P_sus, cap]. A warmer start or a longer run gets less of
// the heat budget, never more. It is cap itself when the thermal model
// is off, when P_sus is at or above cap (the heatsink cannot bind), and
// for a horizon of zero or less; an uncapped caller passes the
// machine's maximum package power as cap.
func (t ThermalParams) BudgetCap(t0 float64, horizon units.Seconds, cap units.Watts) units.Watts {
	sus := t.SustainedPower()
	if !t.Enabled() || sus >= cap || horizon <= 0 {
		return cap
	}
	c := float64(sus) + (t.TMaxC-t0)/(t.RThermal*math.Expm1(float64(horizon)/(t.RThermal*t.CThermal)))
	switch {
	case !(c > float64(sus)): // a start at or past the trip point, or a NaN
		return sus
	case c > float64(cap):
		return cap
	}
	return units.Watts(c)
}

// Heat is the state the shared heatsink carries from one run of the
// machine to the next: the node's temperature and the throttle's
// frequency ceiling on each device, the highest level it lets the
// device run at.
type Heat struct {
	TempC float64
	Ceil  [NumDevices]int
}

// Validate checks the parameters' internal consistency. The zero value
// (model disabled) is valid.
func (t ThermalParams) Validate() error {
	if t.RThermal < 0 || t.CThermal < 0 {
		return fmt.Errorf("apu: negative thermal RC (R=%v, C=%v)", t.RThermal, t.CThermal)
	}
	if t.TMaxC < 0 {
		return fmt.Errorf("apu: negative TMax %v", t.TMaxC)
	}
	if t.HysteresisC < 0 {
		return fmt.Errorf("apu: negative thermal hysteresis %v", t.HysteresisC)
	}
	if t.TMaxC > 0 {
		if t.RThermal <= 0 || t.CThermal <= 0 {
			return fmt.Errorf("apu: TMax %v set but thermal RC incomplete (R=%v, C=%v)", t.TMaxC, t.RThermal, t.CThermal)
		}
		if t.TMaxC <= t.AmbientC {
			return fmt.Errorf("apu: TMax %v not above ambient %v", t.TMaxC, t.AmbientC)
		}
	}
	return nil
}
