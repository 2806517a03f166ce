package exp

import (
	"fmt"
	"io"

	"corun/internal/units"
	"corun/internal/workload"
)

// EnergyRow is one policy's energy accounting.
type EnergyRow struct {
	Policy   string
	Makespan units.Seconds
	EnergyJ  float64
	// EDP is the energy-delay product (J*s), the efficiency metric
	// that rewards both finishing fast and finishing cheap.
	EDP float64
	// AvgPower is EnergyJ / Makespan.
	AvgPower units.Watts
}

// EnergyResult studies the energy dimension the paper's introduction
// motivates (power caps exist "for energy efficiency and reliability"):
// under the same 15 W cap, how do the policies compare in energy and
// energy-delay product, not just makespan?
type EnergyResult struct {
	N    int
	Cap  units.Watts
	Rows []EnergyRow
}

// Energy runs the comparison on the 8-program batch.
func (s *Suite) Energy() (*EnergyResult, error) {
	const cap = 15
	batch := workload.Batch8()
	cx, _, err := s.context(batch, cap)
	if err != nil {
		return nil, err
	}
	res := &EnergyResult{N: len(batch), Cap: cap}
	for _, arm := range []struct {
		label, policy string
		seed          int64
	}{
		{"Random", "random", 1}, {"Default_G", "default", armSeed}, {"HCS", "hcs", armSeed}, {"HCS+", "hcs+", armSeed},
	} {
		a, err := s.run(cx, batch, arm.policy, arm.seed)
		if err != nil {
			return nil, err
		}
		r := a.Result
		res.Rows = append(res.Rows, EnergyRow{
			Policy:   arm.label,
			Makespan: r.Makespan,
			EnergyJ:  r.EnergyJ,
			EDP:      r.EnergyJ * float64(r.Makespan),
			AvgPower: r.AvgPower,
		})
	}
	return res, nil
}

// WriteText renders the comparison.
func (r *EnergyResult) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%d instances, cap %.0f W:\n", r.N, float64(r.Cap)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-10s %10s %10s %14s %9s\n",
		"policy", "makespan", "energy(J)", "EDP(kJ*s)", "avg W"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "  %-10s %9.1fs %10.0f %14.0f %9.2f\n",
			row.Policy, float64(row.Makespan), row.EnergyJ, row.EDP/1000, float64(row.AvgPower)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "co-scheduling converts the fixed power budget into throughput:\nsimilar energy, much lower energy-delay product.")
	return err
}
