package core

import (
	"fmt"
	"sort"

	"corun/internal/apu"
	"corun/internal/units"
)

// preferenceThreshold is D of step 2: a job whose CPU and GPU times
// differ by no more than 20% is non-preferred.
const preferenceThreshold = 0.20

// Preference labels a job's processor affinity (step 2).
type Preference int

// Preference values.
const (
	CPUPreferred Preference = iota
	GPUPreferred
	NonPreferred
)

// String implements fmt.Stringer.
func (p Preference) String() string {
	switch p {
	case CPUPreferred:
		return "CPU"
	case GPUPreferred:
		return "GPU"
	default:
		return "Non"
	}
}

// Partition is the step-1 split: S_co can benefit from co-running,
// S_seq should run alone.
type Partition struct {
	SCo  []int
	SSeq []int
}

// PartitionJobs applies the Co-Run Theorem over all partners,
// placements, and cap-feasible frequency pairs (step 1, with the
// IV-A.2 changes): a job joins S_co if co-running it with some other
// job, in either placement and at some feasible pair of levels, beats
// running the two back to back, each alone on its best cap-feasible
// device and level. Each job tries its partners in index order and
// stops at the first that benefits; a pair the partner's own loop
// already asked is not asked again.
func (cx *Context) PartitionJobs() Partition {
	type job struct {
		seq   units.Seconds // best solo time anywhere
		solo  bool          // seq exists: some solo run fits the caps
		first int           // the first partner that benefits; n if none
	}
	n := cx.Oracle.NumJobs()
	var buf [32]job
	jobs := buf[:0]
	for i := 0; i < n; i++ {
		_, _, t, ok := cx.BestSoloAnywhere(i)
		jobs = append(jobs, job{seq: t, solo: ok, first: n})
	}
	var p Partition
	for i := range jobs {
		a := &jobs[i]
		for j := range jobs {
			b := &jobs[j]
			var benefits bool
			switch {
			case j == i:
				continue
			case j < i && i <= b.first:
				// j's loop asked this pair and went on past it
				// unless it benefits.
				benefits = i == b.first
			default:
				seq := a.seq + b.seq
				benefits = a.solo && b.solo && (cx.pairEverBeneficial(i, j, seq) || cx.pairEverBeneficial(j, i, seq))
			}
			if benefits {
				a.first = j
				break
			}
		}
		if a.first < n {
			p.SCo = append(p.SCo, i)
		} else {
			p.SSeq = append(p.SSeq, i)
		}
	}
	return p
}

// Categorize labels each listed job by processor preference using its
// best cap-feasible standalone times (step 2, with the IV-A.2 change:
// times at the highest frequency the cap allows). Jobs with no feasible
// operating point on one device prefer the other; jobs feasible
// nowhere are reported in the error. The result is indexed by job;
// jobs not listed read NonPreferred.
func (cx *Context) Categorize(jobs []int) ([]Preference, error) {
	out := make([]Preference, cx.Oracle.NumJobs())
	for i := range out {
		out[i] = NonPreferred
	}
	for _, i := range jobs {
		tc, okC := cx.BestSoloTime(i, apu.CPU)
		tg, okG := cx.BestSoloTime(i, apu.GPU)
		switch {
		case !okC && !okG:
			return nil, fmt.Errorf("core: job %d has no cap-feasible operating point", i)
		case !okC:
			out[i] = GPUPreferred
		case !okG:
			out[i] = CPUPreferred
		case float64(tc) > float64(tg)*(1+preferenceThreshold):
			out[i] = GPUPreferred
		case float64(tg) > float64(tc)*(1+preferenceThreshold):
			out[i] = CPUPreferred
		default:
			out[i] = NonPreferred
		}
	}
	return out, nil
}

// HCSOptions switches steps of the heuristic off (ablation).
type HCSOptions struct {
	// DisablePartition skips step 1 (ablation): every job joins S_co.
	DisablePartition bool

	// DisablePreference skips step 2 (ablation): every job is treated
	// as non-preferred.
	DisablePreference bool
}

// HCS runs the heuristic co-scheduling algorithm (section IV-A) and
// returns the planned schedule.
func (cx *Context) HCS(opts HCSOptions) (*Schedule, error) {
	n := cx.Oracle.NumJobs()
	if n == 0 {
		return &Schedule{Exclusive: map[int]bool{}}, nil
	}

	// Step 1: partition into co-run and sequential sets.
	var part Partition
	if opts.DisablePartition {
		for i := 0; i < n; i++ {
			part.SCo = append(part.SCo, i)
		}
	} else {
		part = cx.PartitionJobs()
	}

	// Step 2: categorize the co-run set by processor preference.
	prefs, err := cx.Categorize(part.SCo)
	if err != nil {
		return nil, err
	}
	if opts.DisablePreference {
		for k := range prefs {
			prefs[k] = NonPreferred
		}
	}

	// Step 3: greedy planning on predicted times.
	s, err := cx.greedyPlan(part.SCo, prefs, nil)
	if err != nil {
		return nil, err
	}

	// Sequential set: each job alone on its best device.
	seq := append([]int(nil), part.SSeq...)
	// Longer jobs first, so short exclusives fill the tail.
	sort.Slice(seq, func(a, b int) bool {
		_, _, ta, _ := cx.BestSoloAnywhere(seq[a])
		_, _, tb, _ := cx.BestSoloAnywhere(seq[b])
		return ta > tb
	})
	for _, j := range seq {
		dev, _, _, ok := cx.BestSoloAnywhere(j)
		if !ok {
			return nil, fmt.Errorf("core: job %d infeasible under cap %v", j, cx.Cap)
		}
		s.place(dev, j)
		s.Exclusive[j] = true
	}
	if err := s.Validate(n); err != nil {
		return nil, err
	}
	return s, nil
}

// greedyPlan is step 3: simulate the schedule on predicted times,
// always filling an idle device from its preference-ordered candidate
// sets with the least-interference job. sco is ascending. visit, when
// not nil, sees each completion on the planner's own timeline.
func (cx *Context) greedyPlan(sco []int, prefs []Preference, visit func(timelineEvent) error) (*Schedule, error) {
	s := &Schedule{Exclusive: map[int]bool{}}
	// remaining stays in ascending job order, so everything summed or
	// scanned over it is summed and scanned in one fixed order.
	remaining := append([]int(nil), sco...)
	take := func(j int) {
		k := sort.SearchInts(remaining, j)
		remaining = append(remaining[:k], remaining[k+1:]...)
	}

	tl := newTimeline()
	var cand []int // reused by every pick

	// remainingWorkOn estimates the other device's outstanding work:
	// its running job's remaining time plus the best solo times of all
	// still-unassigned jobs (which would otherwise run there).
	remainingWorkOn := func(dev apu.Device, exclude int) float64 {
		total := 0.0
		if run := tl.job[dev]; run >= 0 {
			if t, ok := cx.BestSoloTime(run, dev); ok {
				total += tl.frac[dev] * float64(t)
			}
		}
		for _, j := range remaining {
			if j == exclude {
				continue
			}
			if t, ok := cx.BestSoloTime(j, dev); ok {
				total += float64(t)
			}
		}
		return total
	}

	// pick chooses the job to start on idle device dev beside whatever
	// the other device is running (other < 0: nothing).
	pick := func(dev apu.Device) int {
		other := tl.job[dev.Other()]
		var class Preference
		cand, class = candidates(cand[:0], dev, remaining, prefs)
		if len(cand) == 0 {
			return -1
		}
		// Balance guard: stealing from the other device's preferred
		// set is only worthwhile if this device can finish the stolen
		// job before the other device would drain the rest — otherwise
		// the slow placement overhangs the makespan and the job is
		// better left for its preferred device.
		if class == otherPreference(dev) {
			// Stealing from the other device's preferred set: admit
			// only steals that finish before the other device would
			// drain the rest (the steal runs degraded, the drain
			// estimate stays optimistic), and among those prefer the
			// job with the smallest relocation penalty — the ratio of
			// its degraded time here to its time on its preferred
			// device.
			best, bestPenalty := -1, 0.0
			for _, j := range cand {
				t, ok := cx.BestSoloTime(j, dev)
				if !ok {
					continue
				}
				est := float64(t)
				if other >= 0 {
					if d, ok := cx.MinPairDegradation(asPair(dev, j, other)); ok {
						est *= 1 + d
					}
				}
				if est > remainingWorkOn(dev.Other(), j) {
					continue
				}
				tPref, ok := cx.BestSoloTime(j, dev.Other())
				if !ok || tPref <= 0 {
					continue
				}
				penalty := est / float64(tPref)
				if best < 0 || penalty < bestPenalty {
					best, bestPenalty = j, penalty
				}
			}
			return best
		}
		if other < 0 {
			// No co-runner: take the longest job to keep devices busy.
			best, bestT := -1, -1.0
			for _, j := range cand {
				t, ok := cx.BestSoloTime(j, dev)
				if !ok {
					continue
				}
				if float64(t) > bestT {
					best, bestT = j, float64(t)
				}
			}
			return best
		}
		// Least combined interference against the running job.
		best, bestD := -1, 0.0
		for _, j := range cand {
			d, ok := cx.MinPairDegradation(asPair(dev, j, other))
			if !ok {
				continue
			}
			if best < 0 || d < bestD {
				best, bestD = j, d
			}
		}
		return best
	}

	// Seed the GPU with the longest GPU-preferred job (step 3's
	// starting rule); pick() already falls back through the sets when
	// GPU-preferred is empty.
	for {
		for _, dev := range [...]apu.Device{apu.GPU, apu.CPU} {
			if tl.job[dev] >= 0 {
				continue
			}
			if j := pick(dev); j >= 0 {
				tl.start(dev, j)
				take(j)
				s.place(dev, j)
			}
		}
		if tl.idle() {
			if len(remaining) == 0 {
				return s, nil
			}
			return nil, fmt.Errorf("core: greedy plan stuck with %d jobs (cap infeasible?)", len(remaining))
		}
		if err := tl.advance(cx); err != nil {
			return nil, err
		}
		if err := tl.visitDone(visit); err != nil {
			return nil, err
		}
	}
}

// asPair orders job, on dev, and other, on the opposite device, as
// (CPU job, GPU job).
func asPair(dev apu.Device, job, other int) (c, g int) {
	if dev == apu.GPU {
		return other, job
	}
	return job, other
}

// otherPreference names the preference class of the opposite device.
func otherPreference(dev apu.Device) Preference {
	if dev == apu.CPU {
		return GPUPreferred
	}
	return CPUPreferred
}

// candidates appends to buf the remaining jobs of the first non-empty
// class in the preference order of the device: its preferred set, then
// non-preferred, then the other device's preferred set (step 3's
// scheduling rule). It also reports which class the candidates came
// from. remaining is ascending, and so is the result.
func candidates(buf []int, dev apu.Device, remaining []int, prefs []Preference) ([]int, Preference) {
	mine := CPUPreferred
	if dev == apu.GPU {
		mine = GPUPreferred
	}
	for _, want := range [...]Preference{mine, NonPreferred, otherPreference(dev)} {
		for _, j := range remaining {
			if prefs[j] == want {
				buf = append(buf, j)
			}
		}
		if len(buf) > 0 {
			return buf, want
		}
	}
	return buf, NonPreferred
}
