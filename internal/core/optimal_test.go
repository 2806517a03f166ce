package core

import (
	"reflect"
	"testing"

	"corun/internal/units"
	"corun/internal/workload"
)

func TestOptimalEmptyAndOversized(t *testing.T) {
	cx, _ := testContext(t, nil, 0)
	s, m, err := cx.OptimalSchedule()
	if err != nil || m != 0 || len(s.Jobs()) != 0 {
		t.Errorf("empty optimal: %v %v %v", s, m, err)
	}
	big, _ := testContext(t, workload.Batch16(), 15)
	if _, _, err := big.OptimalSchedule(); err == nil {
		t.Error("oversized batch accepted")
	}
}

// The exhaustive optimum is never worse than HCS+ on the predicted
// metric, and the lower bound sits at or below it.
func TestOptimalDominatesHeuristics(t *testing.T) {
	batch, err := workload.Subset("streamcluster", "cfd", "dwt2d", "hotspot", "lud")
	if err != nil {
		t.Fatal(err)
	}
	cx, opts := testContext(t, batch, 15)

	opt, optT, err := cx.OptimalSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Validate(len(batch)); err != nil {
		t.Fatal(err)
	}

	plus, plusT, err := cx.HCSPlus(HCSOptions{}, RefineOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if optT > plusT+1e-9 {
		t.Errorf("optimal predicted %v worse than HCS+ %v", optT, plusT)
	}
	// The heuristic should be close to optimal on small batches (the
	// paper's premise that the greedy finds good schedules).
	if float64(plusT) > float64(optT)*1.25 {
		t.Errorf("HCS+ predicted %v more than 25%% above optimal %v", plusT, optT)
	}

	bound, err := cx.LowerBound()
	if err != nil {
		t.Fatal(err)
	}
	if float64(bound) > float64(optT)*1.001 {
		t.Errorf("lower bound %v above the predicted optimum %v", bound, optT)
	}

	// The optimal schedule also executes well.
	res, err := cx.Execute(opt, batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || len(res.Completions) != len(batch) {
		t.Errorf("optimal execution broken: %v, %d completions", res.Makespan, len(res.Completions))
	}
	_ = plus
}

func TestForEachPermutation(t *testing.T) {
	var count int
	seen := map[[3]int]bool{}
	forEachPermutation([]int{1, 2, 3}, func(p []int) {
		count++
		seen[[3]int{p[0], p[1], p[2]}] = true
	})
	if count != 6 || len(seen) != 6 {
		t.Errorf("3-element permutations: %d calls, %d distinct", count, len(seen))
	}
	calls := 0
	forEachPermutation(nil, func(p []int) { calls++ })
	if calls != 1 {
		t.Errorf("empty permutation visited %d times, want 1", calls)
	}
}

// Exhaustive cross-check on a tiny batch: HCS+ lands within a small
// factor of the enumerated optimum for several caps.
func TestHeuristicNearOptimalAcrossCaps(t *testing.T) {
	batch, err := workload.Subset("dwt2d", "srad", "hotspot", "lud")
	if err != nil {
		t.Fatal(err)
	}
	for _, cap := range []float64{0, 14, 16, 20} {
		cx, _ := testContext(t, batch, units.Watts(cap))
		_, optT, err := cx.OptimalSchedule()
		if err != nil {
			t.Fatalf("cap %v: %v", cap, err)
		}
		_, plusT, err := cx.HCSPlus(HCSOptions{}, RefineOptions{Seed: 7})
		if err != nil {
			t.Fatalf("cap %v: %v", cap, err)
		}
		if float64(plusT) > float64(optT)*1.30 {
			t.Errorf("cap %v: HCS+ %v vs optimal %v (>30%% gap)", cap, plusT, optT)
		}
	}
}

// TestParallelSearchMatchesSerial pins the determinism contract of the
// worker-pool fan-out: the optimal and genetic searches return the
// same result for every worker count.
func TestParallelSearchMatchesSerial(t *testing.T) {
	batch, err := workload.Subset("streamcluster", "cfd", "dwt2d", "hotspot", "srad", "lud")
	if err != nil {
		t.Fatal(err)
	}
	cx, _ := testContext(t, batch, 15)
	start, err := cx.HCS(HCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	searches := map[string]func(workers int) (*Schedule, units.Seconds, error){
		"optimal": func(workers int) (*Schedule, units.Seconds, error) {
			return cx.optimalSchedule(workers)
		},
		"genetic": func(workers int) (*Schedule, units.Seconds, error) {
			return cx.genetic(GeneticOptions{Seed: 7, SeedSchedule: start}, workers)
		},
	}
	for name, search := range searches {
		serial, serialT, err := search(1)
		if err != nil {
			t.Fatalf("%s workers=1: %v", name, err)
		}
		for _, workers := range []int{2, 7} {
			fanned, fannedT, err := search(workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !reflect.DeepEqual(serial, fanned) || serialT != fannedT {
				t.Errorf("%s: workers=%d found %v (%v), serial %v (%v)", name, workers, fanned, fannedT, serial, serialT)
			}
		}
	}
}
