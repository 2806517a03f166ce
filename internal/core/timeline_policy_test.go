package core_test

import (
	"math"
	"testing"

	"corun/internal/core"
	"corun/internal/policy"
)

// TestTimelineProperties walks the plan of every registered policy on
// both paper batches under a package cap, a plane cap alone and no cap,
// and checks what every consumer of the walk relies on: each job starts
// once and completes once, nothing ever starts beside an exclusive job
// (nor an exclusive job beside anything), time never runs backwards,
// and the last completion is, bit for bit, PredictedMakespan.
func TestTimelineProperties(t *testing.T) {
	for _, name := range policy.Names() {
		for _, bc := range core.BatchCases {
			for _, cc := range core.CapCases {
				t.Run(name+"/"+bc.Name+"/"+cc.Name, func(t *testing.T) {
					batch := bc.Batch()
					if name == "optimal" && len(batch) > core.MaxOptimalJobs {
						t.Skipf("optimal plans at most %d jobs", core.MaxOptimalJobs)
					}
					cx, _ := core.TestContext(t, batch, cc.Cap)
					cx.Domains = cc.Domains
					s, err := policy.Plan(name, cx, policy.Options{Seed: 7})
					if err != nil {
						t.Fatal(err)
					}
					starts := make([]int, len(batch))
					dones := make([]int, len(batch))
					last := math.Inf(-1)
					end, err := cx.Walk(s, func(ev core.TimelineEvent) error {
						if ev.Now() < last {
							t.Errorf("time ran backwards: %v after %v", ev.Now(), last)
						}
						last = ev.Now()
						if ev.Done() {
							dones[ev.Job()]++
							return nil
						}
						starts[ev.Job()]++
						if o := ev.Other(); o >= 0 && (s.Exclusive[ev.Job()] || s.Exclusive[o]) {
							t.Errorf("job %d started on %v beside job %d; exclusive set %v", ev.Job(), ev.Dev(), o, s.Exclusive)
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					for j := range batch {
						if starts[j] != 1 || dones[j] != 1 {
							t.Errorf("job %d started %d times, completed %d times", j, starts[j], dones[j])
						}
					}
					want, err := cx.PredictedMakespan(s)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(last) != math.Float64bits(float64(want)) || end != want {
						t.Errorf("last completion %v, walk returned %v, PredictedMakespan %v", last, end, want)
					}
				})
			}
		}
	}
}
