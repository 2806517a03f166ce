package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"corun/internal/apu"
	"corun/internal/units"
)

// The paper's local refinement is deliberately cheap (linear). The two
// metaheuristics here explore the same schedule space harder, at a cost
// the paper's online budget would not allow; they bound how much the
// cheap refinement leaves on the table. Simulated annealing perturbs
// one schedule; the genetic search (the direction of Phan et al., cited
// in the paper's related work) evolves a population.

// The annealing schedule: the number of proposed moves, and the
// starting temperature relative to the initial predicted makespan (5%
// uphill moves are plausible early).
const (
	annealIterations  = 2000
	annealInitialTemp = 0.05
)

// Anneal improves a schedule by simulated annealing on the predicted
// makespan, using the same move set as the paper's refinement (adjacent
// swaps, in-queue swaps, cross-device swaps) plus job migration between
// queues. seed drives the proposal chain. It returns the best schedule
// found and its predicted makespan.
func (cx *Context) Anneal(s *Schedule, seed int64) (*Schedule, units.Seconds, error) {
	cur := s.Clone()
	curT, err := cx.PredictedMakespan(cur)
	if err != nil {
		return nil, 0, err
	}
	best, bestT := cur.Clone(), curT
	rng := rand.New(rand.NewSource(seed))

	for k := 0; k < annealIterations; k++ {
		cand := cur.Clone()
		mutateSchedule(cand, rng)
		candT, err := cx.PredictedMakespan(cand)
		if err != nil {
			continue // infeasible proposal; skip
		}
		temp := annealInitialTemp * float64(curT) * (1 - float64(k)/annealIterations)
		delta := float64(candT - curT)
		if delta <= 0 || (temp > 0 && rng.Float64() < math.Exp(-delta/temp)) {
			cur, curT = cand, candT
			if curT < bestT {
				best, bestT = cur.Clone(), curT
			}
		}
	}
	return best, bestT, nil
}

// mutateSchedule applies one random move in place: a swap within one
// device's order (move 0 on the CPU, 1 on the GPU), a swap across the
// two, or a job's migration to the other device.
func mutateSchedule(s *Schedule, rng *rand.Rand) {
	const (
		swapAcross = 2
		migrate    = 3
	)
	for attempts := 0; attempts < 8; attempts++ {
		switch m := rng.Intn(4); m {
		case int(apu.CPU), int(apu.GPU):
			if q := *s.order(apu.Device(m)); len(q) >= 2 {
				i, j := rng.Intn(len(q)), rng.Intn(len(q))
				q[i], q[j] = q[j], q[i]
				return
			}
		case swapAcross:
			if c, g := s.CPUOrder, s.GPUOrder; len(c) > 0 && len(g) > 0 {
				i, j := rng.Intn(len(c)), rng.Intn(len(g))
				c[i], g[j] = g[j], c[i]
				return
			}
		case migrate:
			// Move one job to a random position on the other device:
			// from the CPU on a coin flip, made only when it has jobs.
			from := apu.GPU
			if len(s.CPUOrder) > 0 && rng.Intn(2) == 0 {
				from = apu.CPU
			}
			if src, dst := s.order(from), s.order(from.Other()); len(*src) > 0 {
				i := rng.Intn(len(*src))
				j := (*src)[i]
				*src = append((*src)[:i], (*src)[i+1:]...)
				pos := 0
				if len(*dst) > 0 {
					pos = rng.Intn(len(*dst) + 1)
				}
				*dst = slices.Insert(*dst, pos, j)
				return
			}
		}
	}
}

// The evolutionary search's shape: population size, generations, and
// the per-offspring mutation probability.
const (
	geneticPopulation   = 24
	geneticGenerations  = 60
	geneticMutationRate = 0.3
)

// GeneticOptions configures the evolutionary search.
type GeneticOptions struct {
	// Seed drives the evolution.
	Seed int64
	// SeedSchedule, if non-nil, joins the initial population (e.g. the
	// HCS output).
	SeedSchedule *Schedule
}

// Genetic evolves a population of schedules under the predicted-
// makespan fitness and returns the best individual. Candidate fitness
// is evaluated on GOMAXPROCS workers; the result is identical for
// every worker count, because candidates are generated sequentially
// from the seed and only their (pure) fitness evaluations fan out.
func (cx *Context) Genetic(opts GeneticOptions) (*Schedule, units.Seconds, error) {
	return cx.genetic(opts, runtime.GOMAXPROCS(0))
}

func (cx *Context) genetic(opts GeneticOptions, workers int) (*Schedule, units.Seconds, error) {
	n := cx.Oracle.NumJobs()
	if n == 0 {
		return &Schedule{Exclusive: map[int]bool{}}, 0, nil
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	type indiv struct {
		s *Schedule
		t units.Seconds
	}
	// evalBatch scores a candidate batch across the worker pool and
	// returns the feasible ones in generation order, so the outcome is
	// independent of the worker count (fitness is a pure function of
	// the schedule; the context's memo tables are lock-guarded).
	evalBatch := func(cands []*Schedule) []indiv {
		type scored struct {
			t  units.Seconds
			ok bool
		}
		scores := make([]scored, len(cands))
		pool := boundedWorkers(workers, len(cands))
		if pool == 1 {
			for i, s := range cands {
				t, err := cx.PredictedMakespan(s)
				scores[i] = scored{t, err == nil}
			}
		} else {
			idx := make(chan int)
			var wg sync.WaitGroup
			for w := 0; w < pool; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range idx {
						t, err := cx.PredictedMakespan(cands[i])
						scores[i] = scored{t, err == nil}
					}
				}()
			}
			for i := range cands {
				idx <- i
			}
			close(idx)
			wg.Wait()
		}
		out := make([]indiv, 0, len(cands))
		for i, sc := range scores {
			if sc.ok {
				out = append(out, indiv{s: cands[i], t: sc.t})
			}
		}
		return out
	}

	var people []indiv
	if opts.SeedSchedule != nil {
		people = append(people, evalBatch([]*Schedule{opts.SeedSchedule.Clone()})...)
	}
	for len(people) < geneticPopulation {
		cands := make([]*Schedule, 0, geneticPopulation-len(people))
		for len(cands) < geneticPopulation-len(people) {
			cands = append(cands, randomSchedule(n, rng))
		}
		people = append(people, evalBatch(cands)...)
	}

	tournament := func() indiv {
		best := people[rng.Intn(len(people))]
		for k := 0; k < 2; k++ {
			c := people[rng.Intn(len(people))]
			if c.t < best.t {
				best = c
			}
		}
		return best
	}

	for g := 0; g < geneticGenerations; g++ {
		var next []indiv
		// Elitism: carry the champion.
		champ := people[0]
		for _, iv := range people {
			if iv.t < champ.t {
				champ = iv
			}
		}
		next = append(next, champ)
		for len(next) < geneticPopulation {
			cands := make([]*Schedule, 0, geneticPopulation-len(next))
			for len(cands) < geneticPopulation-len(next) {
				a, b := tournament(), tournament()
				child := crossover(a.s, b.s, n, rng)
				if rng.Float64() < geneticMutationRate {
					mutateSchedule(child, rng)
				}
				cands = append(cands, child)
			}
			next = append(next, evalBatch(cands)...)
		}
		people = next
	}
	best := people[0]
	for _, iv := range people {
		if iv.t < best.t {
			best = iv
		}
	}
	if err := best.s.Validate(n); err != nil {
		return nil, 0, fmt.Errorf("core: genetic search produced an invalid schedule: %w", err)
	}
	return best.s, best.t, nil
}

// randomSchedule assigns each job to a random device with preference-
// free random order.
func randomSchedule(n int, rng *rand.Rand) *Schedule {
	s := &Schedule{Exclusive: map[int]bool{}}
	for _, j := range rng.Perm(n) {
		s.place(apu.Device(rng.Intn(2)), j)
	}
	return s
}

// crossover builds a child that inherits each job's device from a
// random parent and its relative order from parent a.
func crossover(a, b *Schedule, n int, rng *rand.Rand) *Schedule {
	devOf := func(s *Schedule) []apu.Device {
		m := make([]apu.Device, n)
		for d := apu.CPU; d <= apu.GPU; d++ {
			for _, j := range *s.order(d) {
				m[j] = d
			}
		}
		return m
	}
	da, db := devOf(a), devOf(b)
	child := &Schedule{Exclusive: map[int]bool{}}
	// Order template: parent a's concatenated order.
	for _, j := range a.Jobs() {
		dev := da[j]
		if rng.Intn(2) == 0 {
			dev = db[j]
		}
		child.place(dev, j)
	}
	return child
}
