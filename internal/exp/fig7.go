package exp

import (
	"fmt"
	"io"

	"corun/internal/apu"
	"corun/internal/model"
	"corun/internal/sim"
	"corun/internal/workload"
)

// PairError is one co-run pair's prediction-accuracy record.
type PairError struct {
	CPUJob, GPUJob string
	Predicted      float64 // predicted degradation of the CPU-side job
	Actual         float64 // measured degradation of the CPU-side job
	// Err is the relative error of the predicted degradation against
	// the measured one, the paper's Figure 7 metric. Denominators are
	// floored at 0.05 so near-zero degradations don't blow up the
	// statistic (documented in EXPERIMENTS.md).
	Err float64
}

// Fig7Setting is the error distribution at one frequency setting.
type Fig7Setting struct {
	Label     string
	Pairs     []PairError
	Histogram *Histogram
	Mean      float64
	Below10   float64
	Below20   float64
}

// Fig7Result reproduces Figure 7: the performance-model error
// distribution over all 64 ordered pairs at the high and medium
// frequency settings.
type Fig7Result struct {
	High   Fig7Setting
	Medium Fig7Setting
}

// errFloor keeps the relative-error denominator away from zero.
const errFloor = 0.05

// degradationFunc predicts the CPU-side degradation of job i beside
// job j at the given levels.
type degradationFunc func(i, fc, j, fg int) float64

// Figure7 measures every ordered pair (i on CPU, j on GPU) of the
// 8-program batch on the ground-truth simulator, predicts each
// degradation with the staged-interpolation model, and bins the
// relative errors.
func (s *Suite) Figure7() (*Fig7Result, error) {
	batch := workload.Batch8()
	_, pred, err := s.context(batch, 0)
	if err != nil {
		return nil, err
	}
	return s.figure7With(batch, func(i, fc, j, fg int) float64 {
		return pred.Degradation(i, apu.CPU, fc, j, fg)
	})
}

// Figure7Calibrated is Figure 7 with the online-calibrated model
// (EX-CAL): the same 64 pairs, predictions corrected by 2N probe
// co-runs.
func (s *Suite) Figure7Calibrated() (*Fig7Result, error) {
	batch := workload.Batch8()
	_, pred, err := s.context(batch, 0)
	if err != nil {
		return nil, err
	}
	cal, err := model.NewCalibratedPredictor(pred, batch)
	if err != nil {
		return nil, err
	}
	return s.figure7With(batch, func(i, fc, j, fg int) float64 {
		return cal.Degradation(i, apu.CPU, fc, j, fg)
	})
}

func (s *Suite) figure7With(batch []*workload.Instance, predict degradationFunc) (*Fig7Result, error) {
	cmax, gmax := s.maxFreqs()
	cmed, gmed := s.mediumFreqs()

	measure := func(label string, fc, fg int) (Fig7Setting, error) {
		set := Fig7Setting{Label: label, Histogram: NewHistogram(0.10, 5)}
		var errs []float64
		for i := range batch {
			for j := range batch {
				target := &workload.Instance{ID: 0, Prog: batch[i].Prog, Scale: 1, Label: batch[i].Label}
				co := &workload.Instance{ID: 1, Prog: batch[j].Prog, Scale: 1, Label: batch[j].Label}
				truth, err := sim.CoRun(sim.Options{Cfg: s.Cfg, Mem: s.Mem}, target, apu.CPU, co, fc, fg)
				if err != nil {
					return set, err
				}
				p := predict(i, fc, j, fg)
				e := abs(p-truth.Degradation) / max(truth.Degradation, errFloor)
				set.Pairs = append(set.Pairs, PairError{
					CPUJob: batch[i].Label, GPUJob: batch[j].Label,
					Predicted: p, Actual: truth.Degradation, Err: e,
				})
				errs = append(errs, e)
			}
		}
		set.Histogram.AddAll(errs)
		set.Mean = Summarize(errs).Mean
		set.Below10 = set.Histogram.FractionBelow(0.10)
		set.Below20 = set.Histogram.FractionBelow(0.20)
		return set, nil
	}

	high, err := measure("high (3.6 GHz / 1.25 GHz)", cmax, gmax)
	if err != nil {
		return nil, err
	}
	med, err := measure("medium (2.2 GHz / 0.85 GHz)", cmed, gmed)
	if err != nil {
		return nil, err
	}
	return &Fig7Result{High: high, Medium: med}, nil
}

// WriteText renders both distributions.
func (r *Fig7Result) WriteText(w io.Writer) error {
	for _, set := range []Fig7Setting{r.High, r.Medium} {
		if _, err := fmt.Fprintf(w, "Setting %s: mean error %.0f%%, <10%%: %.0f%% of pairs, <20%%: %.0f%%\n",
			set.Label, 100*set.Mean, 100*set.Below10, 100*set.Below20); err != nil {
			return err
		}
		if err := set.Histogram.WriteTable(w, true); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "[paper: ~half below 10%, >70% below 20%; mean 15% high / 11% medium]")
	return err
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// worstPairs returns the k pairs with the largest error, for reports.
func (set Fig7Setting) worstPairs(k int) []PairError {
	out := append([]PairError(nil), set.Pairs...)
	for i := 0; i < len(out) && i < k; i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].Err > out[i].Err {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// WriteWorst renders the k worst-predicted pairs of a setting.
func (set Fig7Setting) WriteWorst(w io.Writer, k int) error {
	for _, p := range set.worstPairs(k) {
		if _, err := fmt.Fprintf(w, "  %s(CPU) x %s(GPU): predicted %.2f actual %.2f (err %.0f%%)\n",
			p.CPUJob, p.GPUJob, p.Predicted, p.Actual, 100*p.Err); err != nil {
			return err
		}
	}
	return nil
}
