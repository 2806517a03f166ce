package policy_test

// Concurrency test for policy.Plan over one shared core.Context,
// written to run under `go test -race` (part of `make verify`),
// mirroring the style of internal/server/race_test.go: many goroutines
// plan every registered policy over one context that sits on one shared
// model.CachedPredictor, while others evaluate makespans. Beyond the
// absence of data races, each policy must return the same plan to
// every goroutine — the memo tables may reorder work but never change
// an answer.

import (
	"fmt"
	"sync"
	"testing"

	"corun/internal/model"
	"corun/internal/policy"
)

func TestConcurrentPlanning(t *testing.T) {
	batch := testBatch(t)
	pred := predictorFor(t, batch)
	cached, err := model.NewCachedPredictor(pred, testCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	cx := contextOver(t, cached)

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
		for i := 0; i < 200; i++ {
			s := cached.Stats()
			if s.Entries < 0 {
				t.Error("negative cache size")
				return
			}
		}
	}()
	wg.Wait()

	if s := cached.Stats(); s.Hits == 0 {
		t.Errorf("shared cache saw no hits across %d planning calls: %+v",
			planners*len(policy.Names()), s)
	}
}
