package exp

import (
	"fmt"
	"io"

	"corun/internal/apu"
	"corun/internal/core"
	"corun/internal/units"
	"corun/internal/workload"
)

// TableIRow is one benchmark's profile line, mirroring Table I.
type TableIRow struct {
	Name string

	// StandaloneCPU/GPU are solo times at maximum frequencies.
	StandaloneCPU units.Seconds
	StandaloneGPU units.Seconds

	// MinCoRunCPU/GPU are the model-predicted co-run times with the
	// least-interfering partner at maximum frequencies.
	MinCoRunCPU units.Seconds
	MinCoRunGPU units.Seconds

	// Preference is the step-2 label.
	Preference core.Preference
}

// TableIResult reproduces Table I.
type TableIResult struct {
	Rows []TableIRow
}

// TableI regenerates Table I: offline standalone profiles, predicted
// min co-run times, and preference labels for the 8-program batch.
func (s *Suite) TableI() (*TableIResult, error) {
	batch := workload.Batch8()
	cx, pred, err := s.context(batch, 0) // Table I is uncapped
	if err != nil {
		return nil, err
	}
	cmax, gmax := s.maxFreqs()
	prefs, err := cx.Categorize(jobIndices(len(batch)))
	if err != nil {
		return nil, err
	}

	res := &TableIResult{}
	for i, inst := range batch {
		row := TableIRow{
			Name:          inst.Label,
			StandaloneCPU: pred.StandaloneTime(i, apu.CPU, cmax),
			StandaloneGPU: pred.StandaloneTime(i, apu.GPU, gmax),
			Preference:    prefs[i],
		}
		// Min co-run time at max frequencies: least-interfering
		// partner as predicted by the model (the paper's Table I
		// caption states exactly this construction).
		row.MinCoRunCPU = minCoRunAtMax(pred, i, apu.CPU, cmax, gmax, len(batch))
		row.MinCoRunGPU = minCoRunAtMax(pred, i, apu.GPU, gmax, cmax, len(batch))
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// minCoRunAtMax finds the predicted co-run time of job i on device d at
// max frequency with its least-interfering partner, both at max.
func minCoRunAtMax(o core.Oracle, i int, d apu.Device, fSelf, fOther, n int) units.Seconds {
	best := -1.0
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		t := float64(o.StandaloneTime(i, d, fSelf)) * (1 + o.Degradation(i, d, fSelf, j, fOther))
		if best < 0 || t < best {
			best = t
		}
	}
	if best < 0 {
		return o.StandaloneTime(i, d, fSelf)
	}
	return units.Seconds(best)
}

func jobIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// WriteText renders the table.
func (r *TableIResult) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-22s", "Job Name"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%14s", row.Name); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	lines := []struct {
		label string
		get   func(TableIRow) string
	}{
		{"Min. co-run time (CPU)", func(r TableIRow) string { return fmt.Sprintf("%.2f", float64(r.MinCoRunCPU)) }},
		{"Min. co-run time (GPU)", func(r TableIRow) string { return fmt.Sprintf("%.2f", float64(r.MinCoRunGPU)) }},
		{"Standalone time (CPU)", func(r TableIRow) string { return fmt.Sprintf("%.2f", float64(r.StandaloneCPU)) }},
		{"Standalone time (GPU)", func(r TableIRow) string { return fmt.Sprintf("%.2f", float64(r.StandaloneGPU)) }},
		{"Preferred", func(r TableIRow) string { return r.Preference.String() }},
	}
	for _, ln := range lines {
		if _, err := fmt.Fprintf(w, "%-22s", ln.label); err != nil {
			return err
		}
		for _, row := range r.Rows {
			if _, err := fmt.Fprintf(w, "%14s", ln.get(row)); err != nil {
				return err
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}
