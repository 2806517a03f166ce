package sim

import (
	"fmt"
	"testing"

	"corun/internal/apu"
	"corun/internal/units"
)

// BenchmarkRun times one simulation of Batch16 at a 15 W package cap
// through QueueDispatcher under a GPU-biased governor (a tick every
// 0.25 s of simulated time), with the thermal model off and throttling
// at T_max 45 C: the simulator's share of an epoch, apart from the
// planner's. machine runs the T_max 45 C scenario back to back on one
// Machine, each run on the heatsink the last one left, as a node's
// epochs run.
func BenchmarkRun(b *testing.B) {
	for _, bc := range []struct {
		name    string
		tmax    float64
		machine bool
	}{{"tmax=off", 0, false}, {"tmax=45", 45, false}, {"machine", 45, true}} {
		b.Run(bc.name, func(b *testing.B) {
			opts, cpuQ, gpuQ := goldenSetup(goldenScenario{pkgCap: 15, tmax: bc.tmax, cpuSlots: 1})
			run := Run
			if bc.machine {
				run = NewMachine(opts.Cfg).Run
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run(opts, NewQueueDispatcher(cpuQ, gpuQ)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// adjustGrid is BenchmarkBiasedAdjust's fixed grid of governor inputs:
// every level pair of the default machine, at package powers under,
// near and over a 15 W cap, with plane powers under and over 8 W / 9 W
// plane caps.
func adjustGrid(cfg *apu.Config) (views []View, powers []units.Watts) {
	for cf := 0; cf < cfg.NumFreqs(apu.CPU); cf++ {
		for gf := 0; gf < cfg.NumFreqs(apu.GPU); gf++ {
			for _, p := range []units.Watts{10, 14.9, 15.5, 25} {
				for _, pl := range [][apu.NumDevices]units.Watts{{3, 4}, {9, 10}} {
					views = append(views, View{Freq: [apu.NumDevices]int{cf, gf}, Plane: pl})
					powers = append(powers, p)
				}
			}
		}
	}
	return views, powers
}

// BenchmarkBiasedAdjust times BiasedGovernor.Adjust alone, one call per
// op over adjustGrid's views in turn, under both biases, with the 15 W
// package cap alone and with 8 W / 9 W plane caps under it.
func BenchmarkBiasedAdjust(b *testing.B) {
	cfg := apu.DefaultConfig()
	views, powers := adjustGrid(cfg)
	for _, bias := range []Bias{GPUBiased, CPUBiased} {
		for _, planes := range []apu.DomainCaps{{}, {PP0: 8, PP1: 9}} {
			b.Run(fmt.Sprintf("%v/planes=%v", bias, planes.Any()), func(b *testing.B) {
				g := &BiasedGovernor{Cap: 15, Domains: planes, Bias: bias}
				sum := 0
				for i := 0; i < b.N; i++ {
					k := i % len(views)
					lv := g.Adjust(powers[k], &views[k], cfg)
					sum += lv[apu.CPU] + lv[apu.GPU]
				}
				adjustSink = sum
			})
		}
	}
}

// adjustSink keeps BenchmarkBiasedAdjust's answers live.
var adjustSink int

// runAllocs is the allocation count of one Run of BenchmarkRun's
// scenario, dispatcher included, at both thermal settings. A PR that
// lowers it lowers it here in the same diff; one that raises it says
// why.
const runAllocs = 29

func TestRunAllocs(t *testing.T) {
	for _, tmax := range []float64{0, 45} {
		opts, cpuQ, gpuQ := goldenSetup(goldenScenario{pkgCap: 15, tmax: tmax, cpuSlots: 1})
		var err error
		a := testing.AllocsPerRun(20, func() {
			if _, e := Run(opts, NewQueueDispatcher(cpuQ, gpuQ)); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if a > runAllocs {
			t.Errorf("tmax=%v: one Run allocates %v times, ceiling %d", tmax, a, runAllocs)
		}
	}
}

// runCounts are the calls one Run of BenchmarkRun's scenario makes, by
// T_max: evals segments evaluated in full (Machine.evaluate calls; every
// other segment reuses the last one's rates and power), adjusts
// Governor.Adjust calls and nexts Dispatcher.Next calls. Asking at every
// tick, as the event loop did before it skipped quiet ticks, the same
// runs make 2,731 / 3,783 Adjust and 1,582 / 1,850 Next calls. A change
// that lowers a count lowers it here in the same diff; one that raises
// it says why.
var runCounts = []struct {
	tmax                  float64
	evals, adjusts, nexts int
}{{0, 45, 44, 31}, {45, 458, 484, 27}}

func TestRunEvaluations(t *testing.T) {
	for _, c := range runCounts {
		opts, cpuQ, gpuQ := goldenSetup(goldenScenario{pkgCap: 15, tmax: c.tmax, cpuSlots: 1})
		p := &probe{}
		opts, calls := count(opts, NewQueueDispatcher(cpuQ, gpuQ))
		if _, err := NewMachine(opts.Cfg).run(opts, calls, p); err != nil {
			t.Fatal(err)
		}
		for _, n := range []struct {
			what       string
			got, limit int
		}{{"segments evaluated in full", p.evaluations, c.evals}, {"Adjust calls", calls.adjusts, c.adjusts}, {"Next calls", calls.nexts, c.nexts}} {
			if n.got > n.limit {
				t.Errorf("tmax=%v: one Run makes %d %s, ceiling %d", c.tmax, n.got, n.what, n.limit)
			}
		}
	}
}
