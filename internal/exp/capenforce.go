package exp

import (
	"fmt"
	"io"

	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// CapEnforceRow is one enforcement mechanism's outcome.
type CapEnforceRow struct {
	Mechanism  string
	Makespan   units.Seconds
	AvgPower   units.Watts
	Violations int
	MaxExcess  units.Watts
}

// CapEnforceResult compares the three ways a power cap can be met
// (section VII's hardware/software/hybrid spectrum, cf. Zhang &
// Hoffmann): model-based planning (HCS+ picks frequencies that fit by
// prediction), a reactive software governor, and RAPL-style hardware
// clamping — all on the same 8-program batch at 15 W.
type CapEnforceResult struct {
	Cap  units.Watts
	Rows []CapEnforceRow
}

// CapEnforcement runs the comparison.
func (s *Suite) CapEnforcement() (*CapEnforceResult, error) {
	const cap = 15
	batch := workload.Batch8()
	cx, _, err := s.context(batch, cap)
	if err != nil {
		return nil, err
	}
	res := &CapEnforceResult{Cap: cap}
	add := func(name string, r *sim.Result, err error) error {
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, CapEnforceRow{
			Mechanism:  name,
			Makespan:   r.Makespan,
			AvgPower:   r.AvgPower,
			Violations: r.CapViolations,
			MaxExcess:  r.MaxExcess,
		})
		return nil
	}

	// Model-based planning: HCS+ chooses cap-feasible frequencies.
	planned, err := s.run(cx, batch, "hcs+", armSeed)
	if err := add("planned (HCS+)", planned.Result, err); err != nil {
		return nil, err
	}
	plan := planned.Plan

	// Reactive software governor on the same dispatch order: run the
	// HCS+ queues but let the biased governor pick frequencies.
	reactive, err := sim.Run(sim.Options{
		Cfg: s.Cfg, Mem: s.Mem, PowerCap: cap,
		Governor: &sim.BiasedGovernor{Cap: cap, Bias: sim.GPUBiased},
	}, sim.NewQueueDispatcher(cloneBatchQ(batch, plan.CPUOrder), cloneBatchQ(batch, plan.GPUOrder)))
	if err := add("reactive governor", reactive, err); err != nil {
		return nil, err
	}

	// Hardware clamp, no software control at all.
	hard, err := sim.Run(sim.Options{
		Cfg: s.Cfg, Mem: s.Mem, PowerCap: cap,
		HardCap: true,
	}, sim.NewQueueDispatcher(cloneBatchQ(batch, plan.CPUOrder), cloneBatchQ(batch, plan.GPUOrder)))
	if err := add("hardware clamp", hard, err); err != nil {
		return nil, err
	}
	return res, nil
}

func cloneBatchQ(batch []*workload.Instance, order []int) []*workload.Instance {
	out := make([]*workload.Instance, len(order))
	for i, j := range order {
		out[i] = batch[j]
	}
	return out
}

// WriteText renders the comparison.
func (r *CapEnforceResult) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "cap %.0f W, same dispatch order, three enforcement mechanisms:\n", float64(r.Cap)); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "  %-18s makespan %7.1fs  avg %5.2f W  violations %3d  max excess %.2f W\n",
			row.Mechanism, float64(row.Makespan), float64(row.AvgPower), row.Violations, float64(row.MaxExcess)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "model-based planning converts the cap into throughput; reactive and\nhardware enforcement pay for their blindness with lower clocks or excursions.")
	return err
}
