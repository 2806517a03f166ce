package exp

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 6, 8})
	if s.N != 4 || s.Mean != 5 || s.Min != 2 || s.Max != 8 || s.Median != 5 {
		t.Errorf("Summarize = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(5)) > 1e-12 {
		t.Errorf("StdDev = %v, want sqrt(5)", s.StdDev)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := Summarize([]float64{9, 1, 5})
	if s.Median != 5 {
		t.Errorf("Median = %v, want 5", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty Summarize = %+v", s)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0.1, 5) // bins: [0,.1) [.1,.2) [.2,.3) [.3,.4) [.4,inf)
	h.AddAll([]float64{0.05, 0.15, 0.15, 0.35, 0.95, -0.2})
	if h.total != 6 {
		t.Fatalf("total = %d, want 6", h.total)
	}
	want := []int{2, 2, 0, 1, 1} // -0.2 clamps into bin 0
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bin %d = %d, want %d", i, h.Counts[i], w)
		}
	}
}

func TestHistogramFractions(t *testing.T) {
	h := NewHistogram(0.1, 3)
	h.AddAll([]float64{0.05, 0.05, 0.15, 0.25})
	if got := h.Fraction(0); got != 0.5 {
		t.Errorf("Fraction(0) = %v, want 0.5", got)
	}
	if got := h.FractionBelow(0.2); got != 0.75 {
		t.Errorf("FractionBelow(0.2) = %v, want 0.75", got)
	}
}

func TestHistogramEmptyFractions(t *testing.T) {
	h := NewHistogram(0.1, 3)
	if h.Fraction(0) != 0 || h.FractionBelow(1) != 0 {
		t.Error("empty histogram fractions should be 0")
	}
}

func TestHistogramLabels(t *testing.T) {
	h := NewHistogram(0.1, 3)
	if got := h.BinLabel(0, true); got != "0-10%" {
		t.Errorf("BinLabel(0) = %q", got)
	}
	if got := h.BinLabel(2, true); got != ">20%" {
		t.Errorf("BinLabel(last) = %q", got)
	}
	if got := h.BinLabel(1, false); got != "0-0" {
		// non-percent labels of fractional bins round to integers;
		// just ensure no crash and stable output
		_ = got
	}
}

func TestHistogramWriteTable(t *testing.T) {
	h := NewHistogram(0.1, 2)
	h.AddAll([]float64{0.05, 0.15})
	var b strings.Builder
	if err := h.WriteTable(&b, true); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "0-10%") || !strings.Contains(out, "50.0%") {
		t.Errorf("table output malformed: %q", out)
	}
}

func TestNewHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram(0,0) did not panic")
		}
	}()
	NewHistogram(0, 0)
}

// Property: histogram bin counts always sum to the number of inserted
// values, and FractionBelow is monotone.
func TestHistogramProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewHistogram(0.05, 8)
		for _, r := range raw {
			h.Add(float64(r) / 65535)
		}
		sum := 0
		for _, c := range h.Counts {
			sum += c
		}
		if sum != len(raw) || h.total != len(raw) {
			return false
		}
		prev := -1.0
		for th := 0.0; th <= 0.4; th += 0.05 {
			fb := h.FractionBelow(th)
			if fb < prev-1e-12 {
				return false
			}
			prev = fb
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Summarize respects ordering invariants: Min <= Median <=
// Max and Min <= Mean <= Max.
func TestSummarizeProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		s := Summarize(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return s.Min == sorted[0] && s.Max == sorted[len(sorted)-1] &&
			s.Min <= s.Median+1e-9 && s.Median <= s.Max+1e-9 &&
			s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.StdDev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
