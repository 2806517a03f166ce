// Package trace records time series produced by the simulator — most
// importantly the 1 Hz package-power samples the paper plots in
// Figure 9 — and renders them as CSV for external tooling.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"corun/internal/units"
)

// Sample is one timestamped observation.
type Sample struct {
	Time  units.Seconds
	Value float64
}

// Series is a time series with a name and a unit label: samples are
// appended in time order.
type Series struct {
	Name string
	Unit string

	samples []Sample
}

// NewSeries creates an empty series.
func NewSeries(name, unit string) *Series {
	return &Series{Name: name, Unit: unit}
}

// NewSeriesCap creates an empty series with room for capacity samples
// before Add has to grow it.
func NewSeriesCap(name, unit string, capacity int) *Series {
	return &Series{Name: name, Unit: unit, samples: make([]Sample, 0, capacity)}
}

// Add appends a sample. Samples must be added in non-decreasing time
// order; Add returns an error otherwise so simulator bugs surface
// early.
func (s *Series) Add(t units.Seconds, v float64) error {
	if n := len(s.samples); n > 0 && t < s.samples[n-1].Time {
		return fmt.Errorf("trace: %s: sample at %v precedes last sample at %v",
			s.Name, t, s.samples[n-1].Time)
	}
	s.samples = append(s.samples, Sample{Time: t, Value: v})
	return nil
}

// MustAdd is Add for callers that guarantee ordering; it panics on
// out-of-order samples.
func (s *Series) MustAdd(t units.Seconds, v float64) {
	if err := s.Add(t, v); err != nil {
		panic(err)
	}
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.samples) }

// At returns the i-th sample.
func (s *Series) At(i int) Sample { return s.samples[i] }

// Samples returns a copy of all samples.
func (s *Series) Samples() []Sample {
	return append([]Sample(nil), s.samples...)
}

// Max returns the largest sample value, or 0 for an empty series.
func (s *Series) Max() float64 {
	max := math.Inf(-1)
	for _, sm := range s.samples {
		if sm.Value > max {
			max = sm.Value
		}
	}
	if math.IsInf(max, -1) {
		return 0
	}
	return max
}

// Mean returns the arithmetic mean of the sample values, or 0 for an
// empty series.
func (s *Series) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, sm := range s.samples {
		sum += sm.Value
	}
	return sum / float64(len(s.samples))
}

// CountAbove returns how many samples exceed the threshold and the
// largest excess observed.
func (s *Series) CountAbove(threshold float64) (n int, maxExcess float64) {
	for _, sm := range s.samples {
		if sm.Value > threshold {
			n++
			if ex := sm.Value - threshold; ex > maxExcess {
				maxExcess = ex
			}
		}
	}
	return n, maxExcess
}

// MarshalJSON renders the series with its samples, so experiment
// results embedding traces serialize cleanly.
func (s *Series) MarshalJSON() ([]byte, error) {
	type sample struct {
		T float64 `json:"t"`
		V float64 `json:"v"`
	}
	out := struct {
		Name    string   `json:"name"`
		Unit    string   `json:"unit"`
		Samples []sample `json:"samples"`
	}{Name: s.Name, Unit: s.Unit}
	for _, sm := range s.samples {
		out.Samples = append(out.Samples, sample{T: float64(sm.Time), V: sm.Value})
	}
	return json.Marshal(out)
}

// UnmarshalJSON restores a series written by MarshalJSON.
func (s *Series) UnmarshalJSON(data []byte) error {
	var in struct {
		Name    string `json:"name"`
		Unit    string `json:"unit"`
		Samples []struct {
			T float64 `json:"t"`
			V float64 `json:"v"`
		} `json:"samples"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	s.Name, s.Unit, s.samples = in.Name, in.Unit, nil
	for _, sm := range in.Samples {
		if err := s.Add(units.Seconds(sm.T), sm.V); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders several series as one JSON document of the form
// {"series": [...]}, each element in the MarshalJSON encoding. This is
// the payload a daemon serves from its trace endpoint.
func WriteJSON(w io.Writer, series ...*Series) error {
	out := struct {
		Series []*Series `json:"series"`
	}{Series: series}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteCSV renders the series as a two-column CSV with a header.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "time_s,%s_%s\n", s.Name, s.Unit); err != nil {
		return err
	}
	for _, sm := range s.samples {
		if _, err := fmt.Fprintf(w, "%.3f,%.4f\n", float64(sm.Time), sm.Value); err != nil {
			return err
		}
	}
	return nil
}

// WriteMultiCSV renders several series sharing a time base as one CSV.
// The series need not have identical timestamps; rows are the union of
// all timestamps and missing values are left empty.
func WriteMultiCSV(w io.Writer, series ...*Series) error {
	if _, err := fmt.Fprint(w, "time_s"); err != nil {
		return err
	}
	for _, s := range series {
		if _, err := fmt.Fprintf(w, ",%s_%s", s.Name, s.Unit); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	idx := make([]int, len(series))
	for {
		// Find the smallest pending timestamp.
		t := math.Inf(1)
		for i, s := range series {
			if idx[i] < s.Len() && float64(s.At(idx[i]).Time) < t {
				t = float64(s.At(idx[i]).Time)
			}
		}
		if math.IsInf(t, 1) {
			return nil
		}
		if _, err := fmt.Fprintf(w, "%.3f", t); err != nil {
			return err
		}
		for i, s := range series {
			if idx[i] < s.Len() && float64(s.At(idx[i]).Time) == t {
				if _, err := fmt.Fprintf(w, ",%.4f", s.At(idx[i]).Value); err != nil {
					return err
				}
				idx[i]++
			} else if _, err := fmt.Fprint(w, ","); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
}
