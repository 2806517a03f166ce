package core

import (
	"fmt"
	"runtime"
	"sync"

	"corun/internal/units"
)

// MaxOptimalJobs bounds the exhaustive optimal search; the schedule
// space is sum_k C(n,k)*k!*(n-k)! = (n+1)! configurations, so eight
// jobs already cost ~360k evaluations.
const MaxOptimalJobs = 8

// boundedWorkers clamps a worker count to the task count: the pool is
// never larger than the number of tasks, and never empty.
func boundedWorkers(workers, tasks int) int {
	return max(1, min(workers, tasks))
}

// OptimalSchedule exhaustively searches every (CPU order, GPU
// order) partition of the batch and returns the schedule with the
// smallest predicted makespan, along with that makespan.
//
// The search optimizes the same predicted objective the heuristics use
// (frequencies per pairing via ChoosePairFreqs, side-note overlap
// arithmetic), so the gap between HCS+ and this optimum isolates the
// heuristic's scheduling loss from model error. The co-scheduling
// problem is NP-hard (section IV), which is exactly why this is only
// feasible for small batches — it exists to validate the heuristics
// and the lower bound, not to replace them.
//
// Each CPU-side subset of the batch is an independent permutation
// search, so the 2^n subsets fan out across GOMAXPROCS workers.
// Results are merged in subset order with a strict less-than
// comparison, so the returned schedule is bit-for-bit identical for
// every worker count, including the serial search.
func (cx *Context) OptimalSchedule() (*Schedule, units.Seconds, error) {
	return cx.optimalSchedule(runtime.GOMAXPROCS(0))
}

func (cx *Context) optimalSchedule(workers int) (*Schedule, units.Seconds, error) {
	n := cx.Oracle.NumJobs()
	if n == 0 {
		return &Schedule{Exclusive: map[int]bool{}}, 0, nil
	}
	if n > MaxOptimalJobs {
		return nil, 0, fmt.Errorf("core: optimal search supports at most %d jobs, got %d", MaxOptimalJobs, n)
	}

	jobs := make([]int, n)
	for i := range jobs {
		jobs[i] = i
	}

	type maskResult struct {
		best  *Schedule
		bestT units.Seconds
		found bool
	}
	results := make([]maskResult, 1<<n)
	workers = boundedWorkers(workers, len(results))
	masks := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for mask := range masks {
				best, bestT, found := cx.searchMask(jobs, mask)
				results[mask] = maskResult{best, bestT, found}
			}
		}()
	}
	for mask := range results {
		masks <- mask
	}
	close(masks)
	wg.Wait()

	var best *Schedule
	bestT := units.Seconds(0)
	found := false
	for _, r := range results {
		if r.found && (!found || r.bestT < bestT) {
			best, bestT, found = r.best, r.bestT, true
		}
	}
	if !found {
		return nil, 0, fmt.Errorf("core: no feasible schedule under cap %v", cx.Cap)
	}
	return best, bestT, nil
}

// searchMask runs the permutation search of one CPU-side subset: jobs
// whose bit is set in mask go to the CPU queue, the rest to the GPU
// queue, and both sides are permuted exhaustively.
func (cx *Context) searchMask(jobs []int, mask int) (best *Schedule, bestT units.Seconds, found bool) {
	var cpu, gpu []int
	for i := range jobs {
		if mask&(1<<i) != 0 {
			cpu = append(cpu, jobs[i])
		} else {
			gpu = append(gpu, jobs[i])
		}
	}
	forEachPermutation(cpu, func(cp []int) {
		forEachPermutation(gpu, func(gp []int) {
			s := &Schedule{
				CPUOrder:  append([]int(nil), cp...),
				GPUOrder:  append([]int(nil), gp...),
				Exclusive: map[int]bool{},
			}
			t, err := cx.PredictedMakespan(s)
			if err != nil {
				return
			}
			if !found || t < bestT {
				best, bestT, found = s, t, true
			}
		})
	})
	return best, bestT, found
}

// forEachPermutation calls f with every permutation of xs (Heap's
// algorithm; the slice passed to f is reused between calls).
func forEachPermutation(xs []int, f func([]int)) {
	if len(xs) == 0 {
		f(nil)
		return
	}
	perm := append([]int(nil), xs...)
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			f(perm)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				perm[i], perm[k-1] = perm[k-1], perm[i]
			} else {
				perm[0], perm[k-1] = perm[k-1], perm[0]
			}
		}
	}
	rec(len(perm))
}
