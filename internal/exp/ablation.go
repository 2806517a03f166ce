package exp

import (
	"fmt"
	"io"

	"corun/internal/core"
	"corun/internal/model"
	"corun/internal/units"
	"corun/internal/workload"
)

// AblationRow is one design-choice ablation outcome.
type AblationRow struct {
	Name     string
	Makespan units.Seconds
	// DeltaVsFull is the fractional makespan change versus the full
	// HCS+ pipeline (positive = worse).
	DeltaVsFull float64
}

// AblationResult collects the ablation study of DESIGN.md §4 on the
// 16-instance batch under a 15 W cap: each row disables one design
// choice of the full pipeline and executes the resulting schedule on
// the ground-truth simulator.
type AblationResult struct {
	Full units.Seconds
	Rows []AblationRow
}

// Ablations runs the study.
func (s *Suite) Ablations() (*AblationResult, error) {
	const cap = 15
	batch := workload.Batch16()
	cx, pred, err := s.context(batch, cap)
	if err != nil {
		return nil, err
	}
	opts := s.execOptions(cap)

	runPlan := func(cx *core.Context, hcsOpts core.HCSOptions, refOpts *core.RefineOptions) (units.Seconds, error) {
		plan, err := cx.HCS(hcsOpts)
		if err != nil {
			return 0, err
		}
		if refOpts != nil {
			plan, _, err = cx.Refine(plan, *refOpts)
			if err != nil {
				return 0, err
			}
		}
		res, err := cx.Execute(plan, batch, opts)
		if err != nil {
			return 0, err
		}
		return res.Makespan, nil
	}

	ref := core.RefineOptions{Seed: 7}
	full, err := runPlan(cx, core.HCSOptions{}, &ref)
	if err != nil {
		return nil, err
	}
	out := &AblationResult{Full: full}
	add := func(name string, m units.Seconds, err error) error {
		if err != nil {
			return fmt.Errorf("exp: ablation %s: %w", name, err)
		}
		out.Rows = append(out.Rows, AblationRow{
			Name: name, Makespan: m, DeltaVsFull: float64(m)/float64(full) - 1,
		})
		return nil
	}

	// No Co-Run Theorem partition (step 1 off).
	m, err := runPlan(cx, core.HCSOptions{DisablePartition: true}, &ref)
	if err := add("no-corun-theorem", m, err); err != nil {
		return nil, err
	}
	// No preference categorization (step 2 off).
	m, err = runPlan(cx, core.HCSOptions{DisablePreference: true}, &ref)
	if err := add("no-preference", m, err); err != nil {
		return nil, err
	}
	// No refinement at all (plain HCS).
	m, err = runPlan(cx, core.HCSOptions{}, nil)
	if err := add("no-refinement", m, err); err != nil {
		return nil, err
	}
	// Individual refinement steps.
	for _, step := range []struct {
		name string
		opts core.RefineOptions
	}{
		{"refine-adjacent-only", core.RefineOptions{Seed: 7, SkipRandomInQueue: true, SkipCross: true}},
		{"refine-inqueue-only", core.RefineOptions{Seed: 7, SkipAdjacent: true, SkipCross: true}},
		{"refine-cross-only", core.RefineOptions{Seed: 7, SkipAdjacent: true, SkipRandomInQueue: true}},
	} {
		stepOpts := step.opts
		m, err = runPlan(cx, core.HCSOptions{}, &stepOpts)
		if err := add(step.name, m, err); err != nil {
			return nil, err
		}
	}

	// Coarse frequency traversal (every 4th level).
	coarse, _, err := s.context(batch, cap)
	if err != nil {
		return nil, err
	}
	coarse.FreqStride = 4
	m, err = runPlan(coarse, core.HCSOptions{}, &ref)
	if err := add("freq-stride-4", m, err); err != nil {
		return nil, err
	}

	// Stride-matched model arm: the predictor at the same coarse
	// traversal the oracle uses below, so oracle-vs-model compares
	// prediction quality alone.
	strided, _, err := s.context(batch, cap)
	if err != nil {
		return nil, err
	}
	strided.FreqStride = 5
	m, err = runPlan(strided, core.HCSOptions{}, &ref)
	if err := add("model-stride-5", m, err); err != nil {
		return nil, err
	}

	// Online-calibrated model (section V.C's "lightweight methods ...
	// on the fly" realized): per-job corrections from 2N probe co-runs.
	calPred, err := model.NewCalibratedPredictor(pred, batch)
	if err != nil {
		return nil, err
	}
	calCx, err := s.options(cap).Context(calPred)
	if err != nil {
		return nil, err
	}
	m, err = runPlan(calCx, core.HCSOptions{}, &ref)
	if err := add("calibrated-model", m, err); err != nil {
		return nil, err
	}

	// Ground-truth oracle instead of the predictive model: isolates
	// prediction error from scheduling error.
	gt, err := model.NewGroundTruthOracle(pred.Prof, batch)
	if err != nil {
		return nil, err
	}
	gtCx, err := s.options(cap).Context(gt)
	if err != nil {
		return nil, err
	}
	gtCx.FreqStride = 5 // the oracle measures by simulation; keep it tractable
	m, err = runPlan(gtCx, core.HCSOptions{}, &ref)
	if err := add("oracle-degradations", m, err); err != nil {
		return nil, err
	}

	return out, nil
}

// WriteText renders the study.
func (r *AblationResult) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "full HCS+ pipeline: %.1fs\n", float64(r.Full)); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "  %-22s %8.1fs (%s vs full)\n",
			row.Name, float64(row.Makespan), pct(row.DeltaVsFull)); err != nil {
			return err
		}
	}
	return nil
}
