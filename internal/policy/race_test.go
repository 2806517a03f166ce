package policy_test

// Concurrency test for policy.Plan over one shared core.Context,
// written to run under `go test -race` (part of `make verify`),
// mirroring the style of internal/server/race_test.go: many goroutines
// plan every registered policy over one context that sits on one shared
// model.Predictor, while others evaluate makespans. Beyond the
// absence of data races, each policy must return the same plan to
// every goroutine — the memo tables may reorder work but never change
// an answer.

import (
	"fmt"
	"sync"
	"testing"

	"corun/internal/apu"
	"corun/internal/core"
	"corun/internal/model"
	"corun/internal/policy"
	"corun/internal/profile"
	"corun/internal/units"
	"corun/internal/workload"
)

func TestConcurrentPlanning(t *testing.T) {
	batch := testBatch(t)
	pred := predictorFor(t, batch)
	cx := contextOver(t, pred)

	// Serial reference answers, planned before any concurrency starts.
	want := map[string]string{}
	for _, name := range policy.Names() {
		plan, err := policy.Plan(name, cx, policy.Options{Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ms, err := cx.PredictedMakespan(plan)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = fmt.Sprintf("%v @ %v", plan, ms)
	}

	const planners = 4
	var wg sync.WaitGroup
	for _, name := range policy.Names() {
		for g := 0; g < planners; g++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				plan, err := policy.Plan(name, cx, policy.Options{Seed: 7})
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				ms, err := cx.PredictedMakespan(plan)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if got := fmt.Sprintf("%v @ %v", plan, ms); got != want[name] {
					t.Errorf("%s: concurrent plan %s, serial reference %s", name, got, want[name])
				}
			}(name)
		}
	}
	// Cache readers race the planners on the predictor's stats surface.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for i := 0; i < 200; i++ {
			s := pred.Stats()
			n := s.Hits + s.Misses
			if n < last {
				t.Errorf("table lookups went from %d down to %d", last, n)
				return
			}
			last = n
		}
	}()
	wg.Wait()

	if s := pred.Stats(); s.Hits+s.Misses == 0 {
		t.Errorf("shared predictor looked up no pair table across %d planning calls: %+v",
			planners*len(policy.Names()), s)
	}
}

// TestConcurrentBatchesShareOneCharacterization is the daemon-plus-
// /v1/plan pattern: two goroutines plan different batches at once, each
// through its own predictor, over one characterization whose pair
// tables are still empty, so they race to build the tables of the
// programs the batches share. Each must get the plan it gets alone
// point by point.
func TestConcurrentBatchesShareOneCharacterization(t *testing.T) {
	cfg, mem, _ := characterize(t)
	char, err := model.Characterize(model.CharacterizeOptions{Cfg: cfg, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	other, err := workload.Subset("hotspot", "lud", "dwt2d", "leukocyte", "heartwall", "cfd", "srad")
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]*workload.Instance{testBatch(t), other}

	predictors := make([]*model.Predictor, len(batches))
	want := make([]string, len(batches))
	for k, batch := range batches {
		prof, err := profile.Collect(cfg, mem, batch)
		if err != nil {
			t.Fatal(err)
		}
		if predictors[k], err = model.NewPredictor(char, prof); err != nil {
			t.Fatal(err)
		}
		alone := contextOver(t, perPoint(predictors[k]))
		plan, err := policy.Plan("hcs+", alone, policy.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		ms, err := alone.PredictedMakespan(plan)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = fmt.Sprintf("%v @ %v", plan, ms)
	}
	if s := char.PairCacheStats(); s.Tables != 0 {
		t.Fatalf("planning point by point filled the cache: %+v", s)
	}

	var wg sync.WaitGroup
	for k := range batches {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cx, err := core.NewContext(predictors[k], cfg, testCap)
			if err != nil {
				t.Error(err)
				return
			}
			plan, err := policy.Plan("hcs+", cx, policy.Options{Seed: 7})
			if err != nil {
				t.Error(err)
				return
			}
			ms, err := cx.PredictedMakespan(plan)
			if err != nil {
				t.Error(err)
				return
			}
			if got := fmt.Sprintf("%v @ %v", plan, ms); got != want[k] {
				t.Errorf("batch %d: planned concurrently %s, alone %s", k, got, want[k])
			}
		}(k)
	}
	wg.Wait()
	if s := char.PairCacheStats(); s.Tables == 0 {
		t.Error("no pair table resident after two planned batches")
	}
}

// TestConcurrentEpochsUnderDifferentCaps is the fleet's cap churn on
// one node: epochs under different caps plan at once over one
// characterization, each through its own predictor, so they race to
// keep feasible lists for the same program pairs under different keys.
// Each epoch must get the plan it gets alone point by point under its
// own caps.
func TestConcurrentEpochsUnderDifferentCaps(t *testing.T) {
	cfg, mem, _ := characterize(t)
	char, err := model.Characterize(model.CharacterizeOptions{Cfg: cfg, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	limits := []struct {
		cap     units.Watts
		domains apu.DomainCaps
	}{{12.5, apu.DomainCaps{}}, {15, apu.DomainCaps{}}, {17.25, apu.DomainCaps{}}, {0, apu.DomainCaps{PP1: 9}}, {0, apu.DomainCaps{Package: 15}}}
	batch := testBatch(t)
	prof, err := profile.Collect(cfg, mem, batch)
	if err != nil {
		t.Fatal(err)
	}
	plan := func(o core.Oracle, k int) string {
		cx, err := core.NewContext(o, cfg, limits[k].cap)
		if err != nil {
			t.Error(err)
			return ""
		}
		cx.Domains = limits[k].domains
		plan, err := policy.Plan("hcs+", cx, policy.Options{Seed: 7})
		if err != nil {
			t.Error(err)
			return ""
		}
		ms, err := cx.PredictedMakespan(plan)
		if err != nil {
			t.Error(err)
			return ""
		}
		return fmt.Sprintf("%v @ %v", plan, ms)
	}
	pred, err := model.NewPredictor(char, prof)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(limits))
	for k := range limits {
		want[k] = plan(perPoint(pred), k)
	}

	const epochs = 3
	var wg sync.WaitGroup
	for k := range limits {
		for e := 0; e < epochs; e++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				epoch, err := model.NewPredictor(char, prof)
				if err != nil {
					t.Error(err)
					return
				}
				if got := plan(epoch, k); got != want[k] {
					t.Errorf("limits %+v: planned concurrently %s, alone %s", limits[k], got, want[k])
				}
			}(k)
		}
	}
	wg.Wait()
	if s := char.PairCacheStats(); s.FeasibleLists < len(limits) {
		t.Errorf("%d feasible lists resident after epochs under %d sets of caps", s.FeasibleLists, len(limits))
	}
}
