package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStringers(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{GHz(3.6).String(), "3.60GHz"},
		{Watts(15).String(), "15.00W"},
		{GBps(11.25).String(), "11.25GB/s"},
		{Seconds(59.71).String(), "59.71s"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelErr(110,100) = %v, want 0.1", got)
	}
	if got := RelErr(90, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelErr(90,100) = %v, want 0.1", got)
	}
	// Near-zero actual falls back to absolute error.
	if got := RelErr(0.5, 0); got != 0.5 {
		t.Errorf("RelErr(0.5,0) = %v, want 0.5", got)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

func TestLerp(t *testing.T) {
	if got := Lerp(2, 4, 0.5); got != 3 {
		t.Errorf("Lerp(2,4,0.5) = %v, want 3", got)
	}
	if got := Lerp(2, 4, 0); got != 2 {
		t.Errorf("Lerp endpoints broken: t=0 gives %v", got)
	}
	if got := Lerp(2, 4, 1); got != 4 {
		t.Errorf("Lerp endpoints broken: t=1 gives %v", got)
	}
}

// Property: Clamp always returns a value inside [lo, hi] when lo <= hi.
func TestClampProperty(t *testing.T) {
	f := func(v, a, b float64) bool {
		if math.IsNaN(v) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		got := Clamp(v, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RelErr is symmetric in sign of deviation and non-negative.
func TestRelErrProperty(t *testing.T) {
	f := func(actual, dev float64) bool {
		if math.IsNaN(actual) || math.IsNaN(dev) || math.IsInf(actual, 0) || math.IsInf(dev, 0) {
			return true
		}
		if math.Abs(actual) < 1e-6 || math.Abs(actual) > 1e12 || math.Abs(dev) > 1e12 {
			return true
		}
		up := RelErr(actual+dev, actual)
		down := RelErr(actual-dev, actual)
		return up >= 0 && down >= 0 && math.Abs(up-down) < 1e-9*(1+up)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Lerp(a,b,t) lies between a and b for t in [0,1].
func TestLerpProperty(t *testing.T) {
	f := func(a, b float64, tRaw uint8) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if math.Abs(a) > 1e12 || math.Abs(b) > 1e12 {
			return true
		}
		tt := float64(tRaw) / 255
		got := Lerp(a, b, tt)
		lo, hi := math.Min(a, b), math.Max(a, b)
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
