package exp

import (
	"fmt"
	"io"
	"time"

	"corun/internal/units"
	"corun/internal/workload"
)

// OverheadResult reproduces the section VI-D scheduling-overhead
// observation: the algorithm's wall time relative to the makespan it
// schedules.
type OverheadResult struct {
	N             int
	SchedulerTime time.Duration
	Makespan      units.Seconds
	// Fraction is scheduler seconds over simulated makespan seconds.
	// The paper reports < 0.1%.
	Fraction float64
}

// Overhead times HCS+ (including refinement) on the 16-instance batch
// and relates it to the executed makespan.
func (s *Suite) Overhead() (*OverheadResult, error) {
	batch := workload.Batch16()
	cx, _, err := s.context(batch, 15)
	if err != nil {
		return nil, err
	}
	plus, err := s.run(cx, batch, "hcs+", armSeed)
	if err != nil {
		return nil, err
	}
	elapsed, res := plus.PlanTime, plus.Result
	out := &OverheadResult{
		N:             len(batch),
		SchedulerTime: elapsed,
		Makespan:      res.Makespan,
	}
	if res.Makespan > 0 {
		out.Fraction = elapsed.Seconds() / float64(res.Makespan)
	}
	return out, nil
}

// WriteText renders the observation.
func (r *OverheadResult) WriteText(w io.Writer) error {
	_, err := fmt.Fprintf(w, "scheduling %d jobs took %v against a %.1fs makespan: %.4f%% [paper: <0.1%%]\n",
		r.N, r.SchedulerTime, float64(r.Makespan), 100*r.Fraction)
	return err
}
