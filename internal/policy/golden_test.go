package policy_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"corun/internal/apu"
	"corun/internal/core"
	"corun/internal/policy"
	"corun/internal/units"
	"corun/internal/workload"
)

// TestPolicyPlansGolden pins every row's plan and simulation bit for
// bit: for each row of the table, generated batches of 4 and 6 jobs
// under a 15 W package cap, a 9 W PP1 cap alone and uncapped. Each
// cell is one line of testdata/plans.golden: the planned orders (an
// exclusive job marked "!") and the plan's predicted makespan, then
// Run's completions (job@device start..end) and simulated makespan.
// Floats print in the shortest form that reads back to the same bits.
func TestPolicyPlansGolden(t *testing.T) {
	cfg, mem, _ := characterize(t)
	limits := []struct {
		name   string
		cap    units.Watts
		planes apu.DomainCaps
	}{
		{"cap15", 15, apu.DomainCaps{}},
		{"pp1-9", 0, apu.DomainCaps{PP1: 9}},
		{"uncapped", 0, apu.DomainCaps{}},
	}
	var got bytes.Buffer
	for _, n := range []int{4, 6} {
		for seed := int64(1); seed <= 3; seed++ {
			batch, err := workload.Generate(workload.GenOptions{N: n, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			pred := predictorFor(t, batch)
			for _, lc := range limits {
				for _, name := range policy.Names() {
					cx, err := core.NewContext(pred, cfg, lc.cap)
					if err != nil {
						t.Fatal(err)
					}
					cx.Domains = lc.planes
					fmt.Fprintf(&got, "n=%d seed=%d %s %s:", n, seed, lc.name, name)
					opts := policy.Options{Seed: seed}
					if plan, err := policy.Plan(name, cx, opts); err != nil {
						fmt.Fprintf(&got, " plan error %v", err)
					} else if ms, err := cx.PredictedMakespan(plan); err != nil {
						fmt.Fprintf(&got, " %v predicted error %v", plan, err)
					} else {
						fmt.Fprintf(&got, " %v predicted %v", plan, float64(ms))
					}
					exec := core.ExecOptions{Cfg: cfg, Mem: mem, Cap: lc.cap, Domains: lc.planes}
					_, _, res, err := policy.Run(name, cx, batch, exec, opts, nil)
					if err != nil {
						fmt.Fprintf(&got, " | run error %v\n", err)
						continue
					}
					got.WriteString(" |")
					for _, c := range res.Completions {
						fmt.Fprintf(&got, " %d@%v %v..%v", c.Inst.ID, c.Dev, float64(c.Start), float64(c.End))
					}
					fmt.Fprintf(&got, " makespan %v\n", float64(res.Makespan))
				}
			}
		}
	}
	path := filepath.Join("testdata", "plans.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%s has %d lines, the run printed %d", path, len(wantLines), len(gotLines))
	}
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s line %d differs:\ngot:  %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
}
