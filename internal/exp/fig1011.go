package exp

import (
	"fmt"
	"io"

	"corun/internal/units"
	"corun/internal/workload"
)

// SpeedupResult reproduces Figure 10 (8 instances) or Figure 11 (16
// instances): makespans of every policy and their speedups over the
// Random baseline, under a 15 W cap.
type SpeedupResult struct {
	N   int
	Cap units.Watts

	RandomAvg units.Seconds
	DefaultG  units.Seconds
	DefaultC  units.Seconds
	HCS       units.Seconds
	HCSPlus   units.Seconds
	Bound     units.Seconds

	// HCSViolations/HCSPlusViolations report the cap behaviour of the
	// planned schedules during execution.
	HCSViolations     int
	HCSPlusViolations int
	HCSPlusMaxExcess  units.Watts
}

// SpeedupOverRandom returns a policy's fractional gain over Random.
func (r *SpeedupResult) SpeedupOverRandom(m units.Seconds) float64 {
	if m <= 0 {
		return 0
	}
	return float64(r.RandomAvg)/float64(m) - 1
}

// Figure10 runs the 8-instance comparison.
func (s *Suite) Figure10() (*SpeedupResult, error) {
	return s.speedupStudy(workload.Batch8(), 15, 20)
}

// Figure11 runs the 16-instance scalability comparison.
func (s *Suite) Figure11() (*SpeedupResult, error) {
	return s.speedupStudy(workload.Batch16(), 15, 20)
}

// armSeed seeds the stochastic planners (HCS+ refinement) wherever an
// experiment does not sweep it.
const armSeed = 7

func (s *Suite) speedupStudy(batch []*workload.Instance, cap units.Watts, randomSeeds int) (*SpeedupResult, error) {
	cx, _, err := s.context(batch, cap)
	if err != nil {
		return nil, err
	}
	res := &SpeedupResult{N: len(batch), Cap: cap}

	res.RandomAvg, err = s.randomAverage(cx, batch, randomSeeds)
	if err != nil {
		return nil, err
	}
	dg, err := s.run(cx, batch, "default", armSeed)
	if err != nil {
		return nil, err
	}
	res.DefaultG = dg.Result.Makespan
	dc, err := s.run(cx, batch, "default-cpu", armSeed)
	if err != nil {
		return nil, err
	}
	res.DefaultC = dc.Result.Makespan

	hcs, err := s.run(cx, batch, "hcs", armSeed)
	if err != nil {
		return nil, err
	}
	res.HCS = hcs.Result.Makespan
	res.HCSViolations = hcs.Result.CapViolations

	plus, err := s.run(cx, batch, "hcs+", armSeed)
	if err != nil {
		return nil, err
	}
	res.HCSPlus = plus.Result.Makespan
	res.HCSPlusViolations = plus.Result.CapViolations
	res.HCSPlusMaxExcess = plus.Result.MaxExcess

	res.Bound, err = cx.LowerBound()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// WriteText renders the comparison in the paper's terms.
func (r *SpeedupResult) WriteText(w io.Writer) error {
	rows := []struct {
		name string
		m    units.Seconds
	}{
		{"Random (avg)", r.RandomAvg},
		{"Default_G", r.DefaultG},
		{"Default_C", r.DefaultC},
		{"HCS", r.HCS},
		{"HCS+", r.HCSPlus},
		{"Lower bound", r.Bound},
	}
	if _, err := fmt.Fprintf(w, "%d instances, cap %.0f W:\n", r.N, float64(r.Cap)); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintf(w, "  %-14s %8.1fs  speedup over Random %s\n",
			row.name, float64(row.m), pct(r.SpeedupOverRandom(row.m))); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "  HCS+ over Default_G: %s; cap violations HCS/HCS+: %d/%d (max excess %.2f W)\n",
		pct(float64(r.DefaultG)/float64(r.HCSPlus)-1), r.HCSViolations, r.HCSPlusViolations, float64(r.HCSPlusMaxExcess))
	return err
}
