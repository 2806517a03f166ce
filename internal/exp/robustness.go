package exp

import (
	"fmt"
	"io"

	"corun/internal/units"
	"corun/internal/workload"
)

// RobustnessRow is one random workload's outcome.
type RobustnessRow struct {
	Seed    int64
	Random  units.Seconds
	HCSPlus units.Seconds
	// Speedup is Random/HCSPlus - 1.
	Speedup float64
}

// RobustnessResult extends the evaluation beyond the eight calibrated
// benchmarks: HCS+ against Random over many seeded synthetic workloads
// (8 jobs each) under a 15 W cap. The paper's claims only generalize
// if the gains survive workloads the models were not calibrated on.
type RobustnessResult struct {
	Rows    []RobustnessRow
	Summary Summary
	// Wins counts workloads where HCS+ beat the Random average.
	Wins int
}

// Robustness runs the study over `workloads` random batches.
func (s *Suite) Robustness(workloads int, randomSeeds int) (*RobustnessResult, error) {
	if workloads <= 0 {
		return nil, fmt.Errorf("exp: need at least one workload")
	}
	if randomSeeds <= 0 {
		randomSeeds = 5
	}
	const cap = 15
	res := &RobustnessResult{}
	var speedups []float64
	for w := 0; w < workloads; w++ {
		seed := int64(100 + w)
		batch, err := workload.Generate(workload.GenOptions{N: 8, Seed: seed})
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
		plus, err := s.run(cx, batch, "hcs+", seed)
		if err != nil {
			return nil, err
		}
		row := RobustnessRow{
			Seed:    seed,
			Random:  randAvg,
			HCSPlus: plus.Result.Makespan,
			Speedup: float64(randAvg)/float64(plus.Result.Makespan) - 1,
		}
		if row.Speedup > 0 {
			res.Wins++
		}
		res.Rows = append(res.Rows, row)
		speedups = append(speedups, row.Speedup)
	}
	res.Summary = Summarize(speedups)
	return res, nil
}

// WriteText renders the study.
func (r *RobustnessResult) WriteText(w io.Writer) error {
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "  seed %4d: Random %7.1fs  HCS+ %7.1fs  speedup %s\n",
			row.Seed, float64(row.Random), float64(row.HCSPlus), pct(row.Speedup)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%d/%d workloads improved; speedup mean %s, min %s, max %s\n",
		r.Wins, len(r.Rows), pct(r.Summary.Mean), pct(r.Summary.Min), pct(r.Summary.Max))
	return err
}
