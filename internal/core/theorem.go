package core

import (
	"corun/internal/units"
)

// CoRunBeneficial is the Co-Run Theorem of section IV-A: given two
// jobs with standalone lengths l1, l2 and co-run degradations d1, d2
// (fractions), the co-run yields higher throughput than running the
// two jobs back to back if and only if the longer co-run's overhead is
// smaller than the shorter job's standalone length.
//
// With l1*(1+d1) >= l2*(1+d2), the theorem reads: co-run wins iff
// l1*d1 < l2.
func CoRunBeneficial(l1, l2 units.Seconds, d1, d2 float64) bool {
	// Normalize so that job 1 has the longer co-run length.
	if float64(l1)*(1+d1) < float64(l2)*(1+d2) {
		l1, l2 = l2, l1
		d1, d2 = d2, d1
	}
	return float64(l1)*d1 < float64(l2)
}

// PairTimes computes the finish times of two jobs that start together
// on the two processors, honouring the side note of section IV-B: only
// the overlapped part of the longer job suffers interference; its
// remainder runs undegraded.
//
// l1, l2 are standalone lengths at the chosen frequencies and d1, d2
// the mutual degradations. The returned times are each job's
// completion time; the pair's makespan is their maximum.
func PairTimes(l1, l2 units.Seconds, d1, d2 float64) (t1, t2 units.Seconds) {
	c1 := float64(l1) * (1 + d1)
	c2 := float64(l2) * (1 + d2)
	if c1 == c2 {
		return units.Seconds(c1), units.Seconds(c2)
	}
	if c1 < c2 {
		// Job 1 finishes first at c1. Job 2 progressed c1/(1+d2) worth
		// of standalone execution by then; the rest runs alone.
		rest := float64(l2) - c1/(1+d2)
		return units.Seconds(c1), units.Seconds(c1 + rest)
	}
	rest := float64(l1) - c2/(1+d1)
	return units.Seconds(c2 + rest), units.Seconds(c2)
}

// PairMakespan is the makespan of the co-run described by PairTimes.
func PairMakespan(l1, l2 units.Seconds, d1, d2 float64) units.Seconds {
	t1, t2 := PairTimes(l1, l2, d1, d2)
	if t1 > t2 {
		return t1
	}
	return t2
}

// NaivePairMakespan is the co-run makespan under the theorem's
// assumption that both jobs suffer their degradation over their whole
// runs: max of the two naive co-run lengths. The Co-Run Theorem is
// exactly the comparison of this quantity against sequential execution.
func NaivePairMakespan(l1, l2 units.Seconds, d1, d2 float64) units.Seconds {
	c1 := float64(l1) * (1 + d1)
	c2 := float64(l2) * (1 + d2)
	if c1 > c2 {
		return units.Seconds(c1)
	}
	return units.Seconds(c2)
}

// pairEverBeneficial checks placement (c on CPU, g on GPU) for any
// feasible frequency pair whose co-run beats seq, the two jobs' best
// sequential execution (each alone on its best cap-feasible device and
// level).
func (cx *Context) pairEverBeneficial(c, g int, seq units.Seconds) bool {
	pts := cx.feasible(c, g)
	if len(pts) == 0 {
		return false
	}
	in := cx.pairInputs(c, g, pts)
	for _, p := range pts {
		tc, tg := in.tc[p.CPU], in.tg[p.GPU]
		// With bounded inputs the naive co-run length is at least
		// max(tc, tg), so a point where either job alone takes seq or
		// longer cannot beat seq.
		if in.bounded && (tc >= seq || tg >= seq) {
			continue
		}
		k := p.CPU*in.ng + p.GPU
		dc, dg := float64(in.dc[k]*in.sc), float64(in.dg[k]*in.sg)
		// The partition test applies the theorem's conservative
		// (naive-length) comparison, as step 1 prescribes.
		if NaivePairMakespan(tc, tg, dc, dg) < seq {
			return true
		}
	}
	return false
}
