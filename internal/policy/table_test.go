package policy_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"corun/internal/core"
	"corun/internal/online"
	"corun/internal/policy"
	"corun/internal/sim"
	"corun/internal/units"
)

// fingerprint is what "the same run" means: completion order, each
// completion's device and end time, and the makespan, floats bit for
// bit.
func fingerprint(r *sim.Result) string {
	var b strings.Builder
	for _, c := range r.Completions {
		fmt.Fprintf(&b, "%s@%v:%x ", c.Inst.Label, c.Dev, math.Float64bits(float64(c.End)))
	}
	fmt.Fprintf(&b, "%x", math.Float64bits(float64(r.Makespan)))
	return b.String()
}

// TestTable walks every row of the policy table: every spelling
// resolves to the canonical name and to no other row; a row that needs
// no model serves an epoch without a characterization and one that
// does is refused without it; Plan's schedule validates; and Run is
// bit-deterministic per (row, seed).
func TestTable(t *testing.T) {
	cfg, mem, _ := characterize(t)
	batch := testBatch(t)
	exec := core.ExecOptions{Cfg: cfg, Mem: mem, Cap: testCap}

	owner := map[string]string{} // spelling -> canonical name
	for _, info := range policy.List() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			if info.Description == "" {
				t.Error("no description")
			}
			for _, spelling := range append([]string{info.Name}, info.Aliases...) {
				if spelling != strings.ToLower(strings.TrimSpace(spelling)) || spelling == "" {
					t.Errorf("table spelling %q is not in normal form", spelling)
				}
				if prev, dup := owner[spelling]; dup {
					t.Errorf("spelling %q names both %q and %q", spelling, prev, info.Name)
				}
				owner[spelling] = info.Name
				for _, variant := range []string{spelling, strings.ToUpper(spelling), " " + strings.ToUpper(spelling[:1]) + spelling[1:] + "\t"} {
					if got, err := policy.Canonical(variant); err != nil || got != info.Name {
						t.Errorf("Canonical(%q) = %q, %v, want %q", variant, got, err, info.Name)
					}
					if policy.NeedsModel(variant) != policy.NeedsModel(info.Name) {
						t.Errorf("NeedsModel(%q) disagrees with the canonical name", variant)
					}
				}
			}

			// Without a characterization: served, or refused up front.
			bare := online.Options{Cfg: cfg, Mem: mem, Cap: testCap, Policy: info.Name}
			_, checkErr := online.CheckPolicy(info.Name, false)
			served, epochErr := online.NewNode(cfg).Run(bare, batch, 3)
			if policy.NeedsModel(info.Name) {
				if checkErr == nil || epochErr == nil {
					t.Errorf("model-based row accepted without a characterization (CheckPolicy %v, Node.Run %v)", checkErr, epochErr)
				}
				if _, _, _, err := policy.Run(info.Name, nil, batch, exec, policy.Options{Seed: 3}, nil); err == nil {
					t.Error("Run accepted a nil context")
				}
			} else if checkErr != nil || epochErr != nil {
				t.Errorf("model-free row refused without a characterization (CheckPolicy %v, Node.Run %v)", checkErr, epochErr)
			} else if len(served.Result.Completions) != len(batch) {
				t.Errorf("served %d of %d jobs", len(served.Result.Completions), len(batch))
			}

			plan, err := policy.Plan(info.Name, contextOver(t, predictorFor(t, batch)), policy.Options{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.Validate(len(batch)); err != nil {
				t.Errorf("Plan's schedule does not validate: %v", err)
			}

			// Each run gets a fresh context, as each epoch does.
			var first string
			for i := 0; i < 2; i++ {
				observed := false
				ran, predicted, res, err := policy.Run(info.Name, contextOver(t, predictorFor(t, batch)), batch, exec,
					policy.Options{Seed: 3}, func(*core.Schedule, units.Seconds) { observed = true })
				if err != nil {
					t.Fatal(err)
				}
				if !observed {
					t.Error("planned hook not called")
				}
				if (ran == nil) != (predicted == 0) {
					t.Errorf("plan %v with predicted makespan %v", ran, predicted)
				}
				if len(res.Completions) != len(batch) {
					t.Fatalf("%d of %d jobs completed", len(res.Completions), len(batch))
				}
				if fp := fingerprint(res); i == 0 {
					first = fp
				} else if fp != first {
					t.Errorf("same (row, seed), different runs:\n%s\n%s", first, fp)
				}
			}
		})
	}
}
