package sim

import "testing"

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

// runEvaluations is the number of segments one Run of BenchmarkRun's
// scenario evaluates in full (Machine.evaluate calls), by T_max: every
// other segment reuses the last one's rates and power. A change that
// lowers a count lowers it here in the same diff; one that raises it
// says why.
var runEvaluations = []struct {
	tmax  float64
	evals int
}{{0, 45}, {45, 458}}

func TestRunEvaluations(t *testing.T) {
	for _, c := range runEvaluations {
		opts, cpuQ, gpuQ := goldenSetup(goldenScenario{pkgCap: 15, tmax: c.tmax, cpuSlots: 1})
		p := &probe{}
		if _, err := NewMachine(opts.Cfg).run(opts, NewQueueDispatcher(cpuQ, gpuQ), p); err != nil {
			t.Fatal(err)
		}
		if p.evaluations > c.evals {
			t.Errorf("tmax=%v: one Run evaluates %d segments in full, ceiling %d", c.tmax, p.evaluations, c.evals)
		}
	}
}
