package exp

import (
	"fmt"
	"io"

	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/units"
	"corun/internal/workload"
)

// SensitivityRow is one perturbed-machine outcome.
type SensitivityRow struct {
	Name    string
	Random  units.Seconds
	HCSPlus units.Seconds
	Speedup float64
}

// SensitivityResult asks whether the headline conclusion — HCS+ beats
// Random under a cap — depends on the calibration constants of the
// contention model. Every row perturbs one constant substantially,
// re-characterizes the degradation space on the perturbed machine
// (model and ground truth move together, as they would on different
// hardware), and re-runs the 8-program comparison.
type SensitivityResult struct {
	Rows []SensitivityRow
	// AllHold reports whether HCS+ won on every perturbed machine.
	AllHold bool
}

// Sensitivity runs the study.
func (s *Suite) Sensitivity() (*SensitivityResult, error) {
	const cap = 15
	variants := []struct {
		name string
		mut  func(*memsys.Params)
	}{
		{"baseline", func(p *memsys.Params) {}},
		{"peak-20%", func(p *memsys.Params) { p.CombinedPeak *= 0.8; p.SoloCapCPU *= 0.8; p.SoloCapGPU *= 0.8 }},
		{"peak+20%", func(p *memsys.Params) { p.CombinedPeak *= 1.2 }},
		{"kappa-x2", func(p *memsys.Params) { p.Kappa *= 2 }},
		{"queue-x2", func(p *memsys.Params) { p.CPUQueueBase *= 2; p.GPUQueueBase *= 2 }},
		{"gpu-favour-off", func(p *memsys.Params) { p.BetaCPU = p.BetaGPU }},
		{"llc-x4", func(p *memsys.Params) { p.LLCWeight *= 4 }},
	}

	res := &SensitivityResult{AllHold: true}
	for _, v := range variants {
		params := memsys.DefaultParams()
		v.mut(&params)
		mem, err := memsys.New(params)
		if err != nil {
			return nil, err
		}
		char, err := model.Characterize(model.CharacterizeOptions{Cfg: s.Cfg, Mem: mem})
		if err != nil {
			return nil, err
		}
		batch := workload.Batch8()
		perturbed := &Suite{Cfg: s.Cfg, Mem: mem, Char: char}
		cx, _, err := perturbed.context(batch, cap)
		if err != nil {
			return nil, err
		}
		randAvg, err := perturbed.randomAverage(cx, batch, 5)
		if err != nil {
			return nil, err
		}
		plus, err := perturbed.run(cx, batch, "hcs+", armSeed)
		if err != nil {
			return nil, err
		}
		row := SensitivityRow{
			Name:    v.name,
			Random:  randAvg,
			HCSPlus: plus.Result.Makespan,
			Speedup: float64(randAvg)/float64(plus.Result.Makespan) - 1,
		}
		if row.Speedup <= 0 {
			res.AllHold = false
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteText renders the study.
func (r *SensitivityResult) WriteText(w io.Writer) error {
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "  %-16s Random %7.1fs  HCS+ %7.1fs  speedup %s\n",
			row.Name, float64(row.Random), float64(row.HCSPlus), pct(row.Speedup)); err != nil {
			return err
		}
	}
	verdict := "the headline conclusion holds under every perturbation."
	if !r.AllHold {
		verdict = "WARNING: some perturbation broke the headline conclusion."
	}
	_, err := fmt.Fprintln(w, verdict)
	return err
}
