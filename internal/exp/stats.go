package exp

// The evaluation's small statistical toolkit: the error histograms of
// Figures 7 and 8 and the summary statistics of their means and of the
// robustness study.

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Summary holds basic descriptive statistics of a sample set.
type Summary struct {
	N              int
	Mean, Min, Max float64
	Median         float64
	StdDev         float64
}

// Summarize computes descriptive statistics. An empty input yields a
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	varSum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varSum += d * d
	}
	s.StdDev = math.Sqrt(varSum / float64(len(xs)))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// Histogram is a fixed-bin histogram over [0, +inf) with uniform bin
// width; the last bin is open-ended. It renders the error-rate
// distributions of Figures 7 and 8.
type Histogram struct {
	// BinWidth is the width of each closed bin.
	BinWidth float64
	// Counts[i] counts values in [i*BinWidth, (i+1)*BinWidth), except
	// the last bin which also absorbs everything above it.
	Counts []int

	total int
}

// NewHistogram creates a histogram with n bins of the given width.
func NewHistogram(binWidth float64, n int) *Histogram {
	if binWidth <= 0 || n <= 0 {
		panic(fmt.Sprintf("exp: invalid histogram shape width=%v bins=%d", binWidth, n))
	}
	return &Histogram{BinWidth: binWidth, Counts: make([]int, n)}
}

// Add inserts a value. Negative values clamp into the first bin.
func (h *Histogram) Add(v float64) {
	i := int(math.Floor(v / h.BinWidth))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.total++
}

// AddAll inserts every value.
func (h *Histogram) AddAll(vs []float64) {
	for _, v := range vs {
		h.Add(v)
	}
}

// Fraction returns the fraction of values in bin i, or 0 when empty.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// FractionBelow returns the fraction of values falling strictly below
// the given threshold, computed from bins (threshold should align with
// a bin edge for exact results).
func (h *Histogram) FractionBelow(threshold float64) float64 {
	if h.total == 0 {
		return 0
	}
	n := 0
	for i, c := range h.Counts {
		hi := float64(i+1) * h.BinWidth
		if hi <= threshold+1e-12 {
			n += c
		}
	}
	return float64(n) / float64(h.total)
}

// BinLabel returns a human-readable range label for bin i, e.g.
// "10-20%" for percentage-scaled histograms.
func (h *Histogram) BinLabel(i int, percent bool) string {
	lo := float64(i) * h.BinWidth
	hi := lo + h.BinWidth
	scale := 1.0
	suffix := ""
	if percent {
		scale = 100
		suffix = "%"
	}
	if i == len(h.Counts)-1 {
		return fmt.Sprintf(">%.0f%s", lo*scale, suffix)
	}
	return fmt.Sprintf("%.0f-%.0f%s", lo*scale, hi*scale, suffix)
}

// WriteTable renders the histogram as "range fraction" rows.
func (h *Histogram) WriteTable(w io.Writer, percent bool) error {
	for i := range h.Counts {
		if _, err := fmt.Fprintf(w, "%-10s %6.1f%%\n", h.BinLabel(i, percent), 100*h.Fraction(i)); err != nil {
			return err
		}
	}
	return nil
}
