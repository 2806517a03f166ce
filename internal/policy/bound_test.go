package policy_test

import (
	"fmt"
	"testing"

	"corun/internal/apu"
	"corun/internal/core"
	"corun/internal/policy"
	"corun/internal/units"
	"corun/internal/workload"
)

// TestBoundBelowEveryPlan holds the lower bound to its name: for every
// row of the table that plans a generated batch, under a package cap,
// under each plane cap alone and uncapped, the bound is at most the
// predicted makespan of the plan. optimal runs on the batches of at
// most five jobs only.
func TestBoundBelowEveryPlan(t *testing.T) {
	cfg := testCfg(t)
	limits := []struct {
		name   string
		cap    units.Watts
		planes apu.DomainCaps
	}{
		{"uncapped", 0, apu.DomainCaps{}},
		{"cap10", 10, apu.DomainCaps{}},
		{"cap15", 15, apu.DomainCaps{}},
		{"cap20", 20, apu.DomainCaps{}},
		{"pp0-6", 0, apu.DomainCaps{PP0: 6}},
		{"pp1-4", 0, apu.DomainCaps{PP1: 4}},
	}
	plans := 0
	for _, n := range []int{3, 5, 8} {
		for seed := int64(1); seed <= 10; seed++ {
			batch, err := workload.Generate(workload.GenOptions{N: n, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			pred := predictorFor(t, batch)
			for _, lc := range limits {
				cx, err := core.NewContext(pred, cfg, lc.cap)
				if err != nil {
					t.Fatal(err)
				}
				cx.Domains = lc.planes
				lb, err := cx.LowerBound()
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range policy.Names() {
					if name == "optimal" && n > 5 {
						continue
					}
					what := fmt.Sprintf("n=%d seed=%d %s %s", n, seed, lc.name, name)
					plan, err := policy.Plan(name, cx, policy.Options{Seed: seed})
					if err != nil {
						continue
					}
					ms, err := cx.PredictedMakespan(plan)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					plans++
					if lb > ms {
						t.Errorf("%s: bound %v above the plan's predicted makespan %v (%v)", what, lb, ms, plan)
					}
				}
			}
		}
	}
	if plans == 0 {
		t.Fatal("no row planned any batch")
	}
	t.Logf("%d plans checked", plans)
}
