// Package units provides the physical quantity types shared across the
// co-run scheduling simulator: frequencies, power, bandwidth, and time.
//
// All quantities are plain float64 named types so they stay cheap in the
// inner simulation loops while still documenting intent at API boundaries.
package units

import (
	"fmt"
	"math"
)

// GHz is a clock frequency in gigahertz.
type GHz float64

// Watts is electrical power in watts.
type Watts float64

// GBps is memory bandwidth in gigabytes per second.
type GBps float64

// Seconds is a duration in (simulated) seconds.
type Seconds float64

// GOps is an abstract amount of work in giga-operations.
type GOps float64

// String implements fmt.Stringer.
func (f GHz) String() string { return fmt.Sprintf("%.2fGHz", float64(f)) }

// String implements fmt.Stringer.
func (w Watts) String() string { return fmt.Sprintf("%.2fW", float64(w)) }

// String implements fmt.Stringer.
func (b GBps) String() string { return fmt.Sprintf("%.2fGB/s", float64(b)) }

// String implements fmt.Stringer.
func (s Seconds) String() string { return fmt.Sprintf("%.2fs", float64(s)) }

// Epsilon is the default tolerance used when comparing simulated quantities.
const Epsilon = 1e-9

// RelErr returns the relative error of predicted with respect to actual,
// |predicted-actual| / |actual|. When actual is (near) zero it falls back to
// the absolute error to avoid dividing by zero.
func RelErr(predicted, actual float64) float64 {
	if math.Abs(actual) < Epsilon {
		return math.Abs(predicted - actual)
	}
	return math.Abs(predicted-actual) / math.Abs(actual)
}

// Clamp limits v to the inclusive range [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Lerp linearly interpolates between a and b by t in [0,1].
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }

// CheckFinite returns an error naming field if v is NaN or infinite.
// A sign test alone lets NaN through — NaN <= 0 is false — so every
// bound on a caller-supplied number starts here.
func CheckFinite(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("non-finite %s %v", field, v)
	}
	return nil
}

// CheckPositive returns an error naming field unless v is finite and
// above zero.
func CheckPositive(field string, v float64) error {
	if err := CheckFinite(field, v); err != nil {
		return err
	}
	if v <= 0 {
		return fmt.Errorf("non-positive %s %v", field, v)
	}
	return nil
}

// CheckNonNegative returns an error naming field unless v is finite and
// not below zero.
func CheckNonNegative(field string, v float64) error {
	if err := CheckFinite(field, v); err != nil {
		return err
	}
	if v < 0 {
		return fmt.Errorf("negative %s %v", field, v)
	}
	return nil
}
