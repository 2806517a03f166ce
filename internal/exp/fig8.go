package exp

import (
	"fmt"
	"io"

	"corun/internal/apu"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// PowerError is one pair's power-prediction record.
type PowerError struct {
	CPUJob, GPUJob string
	Freqs          [2]int
	Predicted      units.Watts
	Actual         units.Watts
	Err            float64
}

// Fig8Result reproduces Figure 8: the power-model error distribution
// over the 64 pairs, each at the best-performing frequency pair under
// a 16 W cap.
type Fig8Result struct {
	Pairs     []PowerError
	Histogram *Histogram
	Mean      float64
	Below2    float64
	MaxErr    float64
}

// Figure8 predicts each pair's co-run power as the sum of standalone
// powers (the paper's model) and compares against the simulated co-run
// power at the same frequencies.
func (s *Suite) Figure8() (*Fig8Result, error) {
	const cap = 16
	batch := workload.Batch8()
	cx, pred, err := s.context(batch, cap)
	if err != nil {
		return nil, err
	}

	res := &Fig8Result{Histogram: NewHistogram(0.02, 5)}
	var errs []float64
	for i := range batch {
		for j := range batch {
			fp, _, _, ok := cx.ChoosePairFreqs(i, j)
			if !ok {
				return nil, fmt.Errorf("exp: pair (%d,%d) infeasible under %d W", i, j, cap)
			}
			predicted := pred.CoRunPower(i, fp.CPU, j, fp.GPU)

			target := &workload.Instance{ID: 0, Prog: batch[i].Prog, Scale: 1, Label: batch[i].Label}
			co := &workload.Instance{ID: 1, Prog: batch[j].Prog, Scale: 1, Label: batch[j].Label}
			truth, err := sim.CoRun(sim.Options{Cfg: s.Cfg, Mem: s.Mem}, target, apu.CPU, co, fp.CPU, fp.GPU)
			if err != nil {
				return nil, err
			}
			e := units.RelErr(float64(predicted), float64(truth.AvgPower))
			res.Pairs = append(res.Pairs, PowerError{
				CPUJob: batch[i].Label, GPUJob: batch[j].Label,
				Freqs: [2]int{fp.CPU, fp.GPU}, Predicted: predicted, Actual: truth.AvgPower, Err: e,
			})
			errs = append(errs, e)
			if e > res.MaxErr {
				res.MaxErr = e
			}
		}
	}
	res.Histogram.AddAll(errs)
	res.Mean = Summarize(errs).Mean
	res.Below2 = res.Histogram.FractionBelow(0.02)
	return res, nil
}

// WriteText renders the distribution.
func (r *Fig8Result) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Power model over %d pairs @16 W: mean error %.2f%%, max %.1f%%, <2%%: %.0f%% of pairs\n",
		len(r.Pairs), 100*r.Mean, 100*r.MaxErr, 100*r.Below2); err != nil {
		return err
	}
	if err := r.Histogram.WriteTable(w, true); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "[paper: mean 1.92%, none above 8%, 69% below 2%]")
	return err
}
