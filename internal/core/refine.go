package core

import (
	"math/rand"

	"corun/internal/apu"
	"corun/internal/units"
)

// RefineOptions configures the post local refinement (section IV-A.3).
type RefineOptions struct {
	// Seed drives the random steps deterministically.
	Seed int64

	// SkipAdjacent, SkipRandomInQueue, and SkipCross disable the
	// corresponding refinement step (ablation).
	SkipAdjacent      bool
	SkipRandomInQueue bool
	SkipCross         bool
}

// rngs holds up to eight of Refine's random generators between plans,
// so a plan reuses one instead of building a source of about 5 KB. A
// plan holds its generator only while it refines, and eight is more
// plans than one process refines at once; a generator returned to a
// full channel is left to the collector. Unlike a sync.Pool, nothing
// empties it, and it keeps every generator returned while there is
// room, under the race detector too.
var rngs = make(chan *rand.Rand, 8)

// seededRand returns a generator that draws the stream of
// rand.New(rand.NewSource(seed)): Seed puts a reused source in exactly
// the state NewSource builds.
func seededRand(seed int64) *rand.Rand {
	select {
	case r := <-rngs:
		r.Seed(seed)
		return r
	default:
		return rand.New(rand.NewSource(seed))
	}
}

// Refine applies the paper's 3-step local refinement to a schedule and
// returns the (possibly improved) result together with its predicted
// makespan:
//
//  1. try swapping every two adjacent jobs on each device;
//  2. try swapping two randomly picked jobs within a device's list;
//  3. try swapping two jobs across the two devices.
//
// Every step keeps a swap only if the predicted makespan improves. The
// cost is linear in the job count and the sample counts.
func (cx *Context) Refine(s *Schedule, opts RefineOptions) (*Schedule, units.Seconds, error) {
	best := s.Clone()
	bestT, err := cx.PredictedMakespan(best)
	if err != nil {
		return nil, 0, err
	}
	// Each random step makes twice as many swap attempts as there are
	// jobs.
	swaps := 2 * (len(best.CPUOrder) + len(best.GPUOrder))
	rng := seededRand(opts.Seed)
	defer func() {
		select {
		case rngs <- rng:
		default:
		}
	}()

	// try swaps q[i] with r[j] in place and undoes the swap unless the
	// predicted makespan improved. A swap keeps every job placed once,
	// so the candidates need no validation of their own.
	try := func(q []int, i int, r []int, j int) {
		q[i], r[j] = r[j], q[i]
		if t, err := cx.predictedMakespan(best); err == nil && t < bestT {
			bestT = t
			return
		}
		q[i], r[j] = r[j], q[i]
	}

	// Step 1: adjacent swaps, CPU list then GPU list.
	if !opts.SkipAdjacent {
		for _, q := range [][]int{best.CPUOrder, best.GPUOrder} {
			for i := 0; i+1 < len(q); i++ {
				try(q, i, q, i+1)
			}
		}
	}

	// Step 2: random in-device swaps.
	for k := 0; !opts.SkipRandomInQueue && k < swaps; k++ {
		q := *best.order(apu.Device(rng.Intn(2)))
		if len(q) < 2 {
			continue
		}
		i, j := rng.Intn(len(q)), rng.Intn(len(q))
		if i == j {
			continue
		}
		try(q, i, q, j)
	}

	// Step 3: random cross-device swaps.
	for k := 0; !opts.SkipCross && k < swaps; k++ {
		if len(best.CPUOrder) == 0 || len(best.GPUOrder) == 0 {
			break
		}
		i, j := rng.Intn(len(best.CPUOrder)), rng.Intn(len(best.GPUOrder))
		try(best.CPUOrder, i, best.GPUOrder, j)
	}

	return best, bestT, nil
}

// HCSPlus runs HCS followed by the post local refinement.
func (cx *Context) HCSPlus(hcsOpts HCSOptions, refOpts RefineOptions) (*Schedule, units.Seconds, error) {
	s, err := cx.HCS(hcsOpts)
	if err != nil {
		return nil, 0, err
	}
	return cx.Refine(s, refOpts)
}
