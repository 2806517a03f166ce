package corun

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"corun/internal/online"
)

// exclusiveSet lists a plan's exclusive jobs in ascending order.
func exclusiveSet(s *Schedule) []int {
	out := []int{}
	for j, on := range s.Exclusive {
		if on {
			out = append(out, j)
		}
	}
	sort.Ints(out)
	return out
}

// TestOneEpochEveryEntryPoint plans and runs one rescaled Fig. 11 epoch
// through the facade (Prepare → ScheduleSeeded → Run) and through
// online.Node.Run, the call the daemon makes, and wants one answer:
// the same dispatch orders, exclusive set and simulated makespan bits,
// whether the cap arrives as the package cap or as a PP1 plane cap. The dispatcher-driven baselines
// have no plan to compare: RunPolicy and Node.Run must complete every
// job, the same jobs on the same devices in the same order at the same
// instants. The daemon's own leg —
// server.Server against online.Node.Run at the same epoch seed — is
// TestOneEpochEveryEntryPoint in internal/server.
func TestOneEpochEveryEntryPoint(t *testing.T) {
	var saved bytes.Buffer
	if err := capped15(t).SaveCharacterization(&saved); err != nil {
		t.Fatal(err)
	}
	const seed = 41
	batch := rescaledFig11(Batch16(), rand.New(rand.NewSource(seed)))
	for _, cc := range []struct {
		name string
		opts []Option
	}{
		{"cap15", []Option{WithPowerCap(15)}},
		{"pp1-9", []Option{WithDomainCaps(DomainCaps{PP1: 9})}},
	} {
		sys, err := NewSystem(append(cc.opts, WithCharacterizationFrom(bytes.NewReader(saved.Bytes())))...)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []string{"hcs", "hcs+"} {
			t.Run(cc.name+"/"+pol, func(t *testing.T) {
				w, err := sys.Prepare(batch)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := w.ScheduleSeeded(pol, seed)
				if err != nil {
					t.Fatal(err)
				}
				report, err := w.Run(plan)
				if err != nil {
					t.Fatal(err)
				}
				epPlan, _, epRes, err := online.NewNode(sys.cfg).Run(online.Options{
					Cfg: sys.cfg, Mem: sys.mem, Char: sys.char,
					Cap: sys.PowerCap(), Domains: sys.DomainCaps(), Policy: pol,
				}, batch, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(plan.CPUOrder, epPlan.CPUOrder) || !reflect.DeepEqual(plan.GPUOrder, epPlan.GPUOrder) ||
					!reflect.DeepEqual(exclusiveSet(plan), exclusiveSet(epPlan)) {
					t.Errorf("facade planned %v, Node.Run %v", plan, epPlan)
				}
				if got, want := math.Float64bits(float64(epRes.Makespan)), math.Float64bits(float64(report.Makespan)); got != want {
					t.Errorf("Node.Run makespan %v, facade %v", epRes.Makespan, report.Makespan)
				}
				byName, ran, err := w.RunPolicy(pol, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(byName, plan) || completionBits(ran.Completions, ran.Makespan) != completionBits(report.Completions, report.Makespan) {
					t.Errorf("RunPolicy planned %v (makespan %v), ScheduleSeeded+Run %v (%v)", byName, ran.Makespan, plan, report.Makespan)
				}
			})
		}
		for _, pol := range []string{"random", "default", "default-cpu"} {
			t.Run(cc.name+"/"+pol, func(t *testing.T) {
				w, err := sys.Prepare(batch)
				if err != nil {
					t.Fatal(err)
				}
				plan, byName, err := w.RunPolicy(pol, seed)
				if err != nil {
					t.Fatal(err)
				}
				epPlan, epPredicted, epRes, err := online.NewNode(sys.cfg).Run(online.Options{
					Cfg: sys.cfg, Mem: sys.mem, Char: sys.char,
					Cap: sys.PowerCap(), Domains: sys.DomainCaps(), Policy: pol,
				}, batch, seed)
				if err != nil {
					t.Fatal(err)
				}
				if plan != nil || epPlan != nil || epPredicted != 0 {
					t.Errorf("a dispatcher-driven baseline reported a plan: RunPolicy %v, Node.Run %v (predicted %v)", plan, epPlan, epPredicted)
				}
				if len(byName.Completions) != len(batch) {
					t.Errorf("RunPolicy(%q) completed %d of %d jobs", pol, len(byName.Completions), len(batch))
				}
				want := completionBits(byName.Completions, byName.Makespan)
				if got := completionBits(epRes.Completions, epRes.Makespan); got != want {
					t.Errorf("Node.Run ran\n%s\nRunPolicy(%q)\n%s", got, pol, want)
				}
			})
		}
	}
}

// completionBits spells a run as its completions in order — job,
// device, end time — and its makespan, floats by their bits.
func completionBits(cs []Completion, makespan Seconds) string {
	var b strings.Builder
	for _, c := range cs {
		fmt.Fprintf(&b, "%d@%v:%x ", c.Inst.ID, c.Dev, math.Float64bits(float64(c.End)))
	}
	fmt.Fprintf(&b, "makespan:%x", math.Float64bits(float64(makespan)))
	return b.String()
}
