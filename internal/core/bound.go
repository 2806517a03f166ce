package core

import (
	"fmt"

	"corun/internal/apu"
	"corun/internal/units"
)

// LowerBound computes the paper's lower bound on the optimal makespan
// (section IV-B):
//
//	T_low = 1/2 * sum_i l'_i
//
// where for each processor p
//
//	l'_{i,p} = min co-run time of i on p with its least-interfering
//	           partner under the cap, if that beats 2x its best solo
//	           time; otherwise 2x its best solo time,
//
// and l'_i = min_p l'_{i,p}. The soundness follows from the Co-Run
// Theorem: a job either overlaps a partner (occupying "half" the
// machine for its co-run length) or runs alone (occupying the whole
// machine, hence the factor two before halving).
func (cx *Context) LowerBound() (units.Seconds, error) {
	n := cx.Oracle.NumJobs()
	total := 0.0
	for i := 0; i < n; i++ {
		li, err := cx.boundTerm(i)
		if err != nil {
			return 0, err
		}
		total += float64(li)
	}
	return units.Seconds(total / 2), nil
}

// boundTerm computes l'_i.
func (cx *Context) boundTerm(i int) (units.Seconds, error) {
	best := -1.0
	for d := apu.CPU; d <= apu.GPU; d++ {
		v, ok := cx.boundTermOn(i, d)
		if !ok {
			continue
		}
		if best < 0 || float64(v) < best {
			best = float64(v)
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("core: job %d infeasible under cap %v", i, cx.Cap)
	}
	return units.Seconds(best), nil
}

// boundTermOn computes l'_{i,p} for one processor.
func (cx *Context) boundTermOn(i int, d apu.Device) (units.Seconds, bool) {
	solo, okSolo := cx.BestSoloTime(i, d)
	minCoRun, okCoRun := cx.MinCoRunTime(i, d)
	switch {
	case !okSolo && !okCoRun:
		return 0, false
	case !okSolo:
		return minCoRun, true
	case okCoRun && minCoRun < 2*solo:
		return minCoRun, true
	default:
		return 2 * solo, true
	}
}

// MinCoRunTime reports the best co-run time of job i on device d with
// its least-interfering partner under the cap — the "min. co-run time"
// rows of Table I. ok is false if no cap-feasible co-run exists.
func (cx *Context) MinCoRunTime(i int, d apu.Device) (units.Seconds, bool) {
	best := -1.0
	for j := 0; j < cx.Oracle.NumJobs(); j++ {
		if j == i {
			continue
		}
		c, g := i, j
		if d == apu.GPU {
			c, g = j, i
		}
		pts := cx.feasible(c, g)
		if len(pts) == 0 {
			continue
		}
		in := cx.pairInputs(c, g, pts)
		times, row, s := in.tc, in.dc, in.sc
		if d == apu.GPU {
			times, row, s = in.tg, in.dg, in.sg
		}
		for _, p := range pts {
			f := p.CPU
			if d == apu.GPU {
				f = p.GPU
			}
			t := float64(times[f]) * (1 + float64(row[p.CPU*in.ng+p.GPU]*s))
			if best < 0 || t < best {
				best = t
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	return units.Seconds(best), true
}

// SoloHorizon is how long the batch can be expected to run, read off
// its solo terms alone: max(longest s_i, Σ s_i / 2), where s_i is job
// i's best cap-feasible solo time on either device — no job ends before
// its own solo run could, and two devices at best halve the summed solo
// work. It asks no pair anything. ok is false when some job has no
// cap-feasible solo run.
func (cx *Context) SoloHorizon() (units.Seconds, bool) {
	var longest, sum units.Seconds
	for i := 0; i < cx.Oracle.NumJobs(); i++ {
		_, _, s, ok := cx.BestSoloAnywhere(i)
		if !ok {
			return 0, false
		}
		longest, sum = max(longest, s), sum+s
	}
	return max(longest, sum/2), true
}
