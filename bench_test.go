// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each benchmark
// reports the experiment's headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation and prints its key numbers.
package corun_test

import (
	"sync"
	"testing"

	"corun/internal/core"
	"corun/internal/exp"
	"corun/internal/model"
	"corun/internal/online"
	"corun/internal/profile"
	"corun/internal/workload"
)

var (
	benchOnce  sync.Once
	benchSuite *exp.Suite
	benchErr   error
)

func suite(b *testing.B) *exp.Suite {
	b.Helper()
	benchOnce.Do(func() { benchSuite, benchErr = exp.NewSuite() })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSuite
}

// BenchmarkFig2StandalonePreference regenerates Figure 2: standalone
// CPU vs GPU times of the four motivating programs. Reported metric:
// the mean preferred-device speedup (paper: 1.8x-2.5x).
func BenchmarkFig2StandalonePreference(b *testing.B) {
	s := suite(b)
	var mean float64
	for i := 0; i < b.N; i++ {
		r, err := s.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, row := range r.Rows {
			sum += row.SpeedupOnPreferred
		}
		mean = sum / float64(len(r.Rows))
	}
	b.ReportMetric(mean, "x-preferred-speedup")
}

// BenchmarkSec3MotivatingExample regenerates the section III example:
// pairwise slowdowns and the best/worst co-schedule enumeration under
// 15 W. Reported metric: worst/best makespan ratio (paper: 2.3x).
func BenchmarkSec3MotivatingExample(b *testing.B) {
	s := suite(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := s.Example3()
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.Ratio
	}
	b.ReportMetric(ratio, "x-worst/best")
}

// BenchmarkFig5CPUDegradationSpace regenerates Figure 5. Reported
// metric: the CPU-side worst-case degradation (paper: ~65%).
func BenchmarkFig5CPUDegradationSpace(b *testing.B) {
	s := suite(b)
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := s.Figures5And6()
		if err != nil {
			b.Fatal(err)
		}
		worst = r.CPUMax
	}
	b.ReportMetric(100*worst, "%cpu-worst-degradation")
}

// BenchmarkFig6GPUDegradationSpace regenerates Figure 6. Reported
// metric: the GPU-side worst-case degradation (paper: ~45%).
func BenchmarkFig6GPUDegradationSpace(b *testing.B) {
	s := suite(b)
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := s.Figures5And6()
		if err != nil {
			b.Fatal(err)
		}
		worst = r.GPUMax
	}
	b.ReportMetric(100*worst, "%gpu-worst-degradation")
}

// BenchmarkFig7PerfModelAccuracy regenerates Figure 7: the performance
// model's error distribution over 64 pairs at two frequency settings.
// Reported metrics: mean errors (paper: 15% high, 11% medium).
func BenchmarkFig7PerfModelAccuracy(b *testing.B) {
	s := suite(b)
	var high, med float64
	for i := 0; i < b.N; i++ {
		r, err := s.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		high, med = r.High.Mean, r.Medium.Mean
	}
	b.ReportMetric(100*high, "%mean-err-high")
	b.ReportMetric(100*med, "%mean-err-medium")
}

// BenchmarkFig8PowerModelAccuracy regenerates Figure 8: the power
// model's error distribution. Reported metric: mean error (paper:
// 1.92%).
func BenchmarkFig8PowerModelAccuracy(b *testing.B) {
	s := suite(b)
	var mean float64
	for i := 0; i < b.N; i++ {
		r, err := s.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		mean = r.Mean
	}
	b.ReportMetric(100*mean, "%mean-power-err")
}

// BenchmarkFig9PowerTraces regenerates Figure 9: 1 Hz power samples of
// four co-runs under a 16 W cap. Reported metric: the largest cap
// excess across all traces (paper: typically < 2 W).
func BenchmarkFig9PowerTraces(b *testing.B) {
	s := suite(b)
	var maxExcess float64
	for i := 0; i < b.N; i++ {
		r, err := s.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		maxExcess = 0
		for _, tr := range r.Traces {
			if float64(tr.MaxExcess) > maxExcess {
				maxExcess = float64(tr.MaxExcess)
			}
		}
	}
	b.ReportMetric(maxExcess, "w-max-cap-excess")
}

// BenchmarkTable1ProfileTable regenerates Table I. Reported metric:
// the count of GPU-preferred programs (paper: 6 of 8).
func BenchmarkTable1ProfileTable(b *testing.B) {
	s := suite(b)
	var gpuPreferred float64
	for i := 0; i < b.N; i++ {
		r, err := s.TableI()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, row := range r.Rows {
			if row.Preference.String() == "GPU" {
				n++
			}
		}
		gpuPreferred = float64(n)
	}
	b.ReportMetric(gpuPreferred, "gpu-preferred-programs")
}

// BenchmarkFig10EightProgramCoSchedule regenerates Figure 10. Reported
// metric: HCS+'s speedup over Random (paper: 41%).
func BenchmarkFig10EightProgramCoSchedule(b *testing.B) {
	s := suite(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := s.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		speedup = r.SpeedupOverRandom(r.HCSPlus)
	}
	b.ReportMetric(100*speedup, "%hcs+-over-random")
}

// BenchmarkFig11SixteenProgramCoSchedule regenerates Figure 11.
// Reported metrics: HCS+'s speedup over Random (paper: 37%) and over
// Default_G (paper: >46%).
func BenchmarkFig11SixteenProgramCoSchedule(b *testing.B) {
	s := suite(b)
	var overRandom, overDefault float64
	for i := 0; i < b.N; i++ {
		r, err := s.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		overRandom = r.SpeedupOverRandom(r.HCSPlus)
		overDefault = float64(r.DefaultG)/float64(r.HCSPlus) - 1
	}
	b.ReportMetric(100*overRandom, "%hcs+-over-random")
	b.ReportMetric(100*overDefault, "%hcs+-over-default")
}

// BenchmarkSchedulerOverhead regenerates the section VI-D observation.
// Reported metric: scheduler wall time over scheduled makespan (paper:
// < 0.1%).
func BenchmarkSchedulerOverhead(b *testing.B) {
	s := suite(b)
	var frac float64
	for i := 0; i < b.N; i++ {
		r, err := s.Overhead()
		if err != nil {
			b.Fatal(err)
		}
		frac = r.Fraction
	}
	b.ReportMetric(100*frac, "%of-makespan")
}

// ablationDelta runs one HCS variant against the full pipeline and
// returns its executed-makespan delta.
func ablationDelta(b *testing.B, name string) float64 {
	s := suite(b)
	r, err := s.Ablations()
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Name == name {
			return row.DeltaVsFull
		}
	}
	b.Fatalf("no ablation row %q", name)
	return 0
}

// BenchmarkAblationNoCoRunTheorem disables the step-1 partition.
func BenchmarkAblationNoCoRunTheorem(b *testing.B) {
	var d float64
	for i := 0; i < b.N; i++ {
		d = ablationDelta(b, "no-corun-theorem")
	}
	b.ReportMetric(100*d, "%makespan-delta")
}

// BenchmarkAblationNoPreference disables the step-2 categorization.
func BenchmarkAblationNoPreference(b *testing.B) {
	var d float64
	for i := 0; i < b.N; i++ {
		d = ablationDelta(b, "no-preference")
	}
	b.ReportMetric(100*d, "%makespan-delta")
}

// BenchmarkAblationRefinementSteps isolates each refinement step.
func BenchmarkAblationRefinementSteps(b *testing.B) {
	var none, adj, inq, cross float64
	for i := 0; i < b.N; i++ {
		none = ablationDelta(b, "no-refinement")
		adj = ablationDelta(b, "refine-adjacent-only")
		inq = ablationDelta(b, "refine-inqueue-only")
		cross = ablationDelta(b, "refine-cross-only")
	}
	b.ReportMetric(100*none, "%no-refine")
	b.ReportMetric(100*adj, "%adjacent-only")
	b.ReportMetric(100*inq, "%inqueue-only")
	b.ReportMetric(100*cross, "%cross-only")
}

// BenchmarkAblationFreqTraversal coarsens the frequency traversal.
func BenchmarkAblationFreqTraversal(b *testing.B) {
	var d float64
	for i := 0; i < b.N; i++ {
		d = ablationDelta(b, "freq-stride-4")
	}
	b.ReportMetric(100*d, "%makespan-delta")
}

// BenchmarkAblationModelVsOracle feeds the scheduler measured (oracle)
// degradations instead of model predictions, isolating prediction
// error from scheduling error.
func BenchmarkAblationModelVsOracle(b *testing.B) {
	var d float64
	for i := 0; i < b.N; i++ {
		d = ablationDelta(b, "oracle-degradations")
	}
	b.ReportMetric(100*d, "%makespan-delta")
}

// BenchmarkExtEnergyStudy runs the energy/EDP extension study.
// Reported metric: HCS+'s EDP advantage over Random.
func BenchmarkExtEnergyStudy(b *testing.B) {
	s := suite(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := s.Energy()
		if err != nil {
			b.Fatal(err)
		}
		var rnd, plus float64
		for _, row := range r.Rows {
			switch row.Policy {
			case "Random":
				rnd = row.EDP
			case "HCS+":
				plus = row.EDP
			}
		}
		ratio = rnd / plus
	}
	b.ReportMetric(ratio, "x-edp-vs-random")
}

// BenchmarkExtSplitStudy runs the kernel-splitting extension study.
// Reported metrics: programs gaining >5% under default and slow-sync
// costs.
func BenchmarkExtSplitStudy(b *testing.B) {
	s := suite(b)
	var def, slow float64
	for i := 0; i < b.N; i++ {
		r, err := s.Split()
		if err != nil {
			b.Fatal(err)
		}
		def, slow = float64(r.WinsDefault), float64(r.WinsSlowSync)
	}
	b.ReportMetric(def, "winners-default")
	b.ReportMetric(slow, "winners-slowsync")
}

// BenchmarkExtRobustness runs HCS+ vs Random over random synthetic
// workloads. Reported metric: mean speedup.
func BenchmarkExtRobustness(b *testing.B) {
	s := suite(b)
	var mean float64
	for i := 0; i < b.N; i++ {
		r, err := s.Robustness(5, 3)
		if err != nil {
			b.Fatal(err)
		}
		mean = r.Summary.Mean
	}
	b.ReportMetric(100*mean, "%mean-speedup")
}

// BenchmarkExtOnlineServing runs the bursty-arrival online study.
// Reported metric: HCS+'s mean-response improvement over random
// dispatch.
func BenchmarkExtOnlineServing(b *testing.B) {
	s := suite(b)
	var gain float64
	for i := 0; i < b.N; i++ {
		arrivals, err := online.GenerateArrivals(16, 10, 5)
		if err != nil {
			b.Fatal(err)
		}
		smart, err := online.Serve(online.Options{
			Cfg: s.Cfg, Mem: s.Mem, Char: s.Char, Cap: 15,
			Policy: "hcs+", Seed: 1,
		}, arrivals)
		if err != nil {
			b.Fatal(err)
		}
		naive, err := online.Serve(online.Options{
			Cfg: s.Cfg, Mem: s.Mem, Char: s.Char, Cap: 15,
			Policy: "random", Seed: 1,
		}, arrivals)
		if err != nil {
			b.Fatal(err)
		}
		gain = float64(naive.MeanResponse)/float64(smart.MeanResponse) - 1
	}
	b.ReportMetric(100*gain, "%response-gain")
}

// BenchmarkExtClusterServing runs the fleet study. Reported metric:
// 3-node HCS+'s completion-time gain over 3-node random dispatch.
func BenchmarkExtClusterServing(b *testing.B) {
	s := suite(b)
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := s.Cluster()
		if err != nil {
			b.Fatal(err)
		}
		var smart, naive float64
		for _, row := range r.Rows {
			switch row.Label {
			case "3-node hcs+ affinity":
				smart = float64(row.Done)
			case "3-node random affinity":
				naive = float64(row.Done)
			}
		}
		gain = naive/smart - 1
	}
	b.ReportMetric(100*gain, "%fleet-gain")
}

// BenchmarkOptimalGap exhaustively enumerates the optimal co-schedule
// of a 5-job batch and reports how close HCS+ gets (predicted metric).
func BenchmarkOptimalGap(b *testing.B) {
	s := suite(b)
	batch, err := workload.Subset("streamcluster", "cfd", "dwt2d", "hotspot", "lud")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := profile.Collect(s.Cfg, s.Mem, batch)
	if err != nil {
		b.Fatal(err)
	}
	pred, err := model.NewPredictor(s.Char, prof)
	if err != nil {
		b.Fatal(err)
	}
	var gap float64
	for i := 0; i < b.N; i++ {
		cx, err := core.NewContext(pred, s.Cfg, 15)
		if err != nil {
			b.Fatal(err)
		}
		_, optT, err := cx.OptimalSchedule()
		if err != nil {
			b.Fatal(err)
		}
		_, plusT, err := cx.HCSPlus(core.HCSOptions{}, core.RefineOptions{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		gap = float64(plusT)/float64(optT) - 1
	}
	b.ReportMetric(100*gap, "%hcs+-above-optimal")
}

// BenchmarkMetaheuristicComparison pits the paper's cheap refinement
// against simulated annealing and a genetic search on the 16-instance
// batch (predicted makespans). Reported metrics: how much each heavy
// search improves on HCS+ — small numbers vindicate the paper's choice
// of a linear-cost refinement.
func BenchmarkMetaheuristicComparison(b *testing.B) {
	s := suite(b)
	batch := workload.Batch16()
	prof, err := profile.Collect(s.Cfg, s.Mem, batch)
	if err != nil {
		b.Fatal(err)
	}
	pred, err := model.NewPredictor(s.Char, prof)
	if err != nil {
		b.Fatal(err)
	}
	var annealGain, gaGain float64
	for i := 0; i < b.N; i++ {
		cx, err := core.NewContext(pred, s.Cfg, 15)
		if err != nil {
			b.Fatal(err)
		}
		hcs, err := cx.HCS(core.HCSOptions{})
		if err != nil {
			b.Fatal(err)
		}
		_, refinedT, err := cx.Refine(hcs, core.RefineOptions{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		_, annealT, err := cx.Anneal(hcs, 7)
		if err != nil {
			b.Fatal(err)
		}
		_, gaT, err := cx.Genetic(core.GeneticOptions{Seed: 7, SeedSchedule: hcs})
		if err != nil {
			b.Fatal(err)
		}
		annealGain = float64(refinedT)/float64(annealT) - 1
		gaGain = float64(refinedT)/float64(gaT) - 1
	}
	b.ReportMetric(100*annealGain, "%anneal-over-hcs+")
	b.ReportMetric(100*gaGain, "%ga-over-hcs+")
}

// BenchmarkHCSPlanning measures the raw planning cost of HCS+HCS+ on
// the 16-instance batch (the scheduler's own latency, no execution).
func BenchmarkHCSPlanning(b *testing.B) {
	s := suite(b)
	batch := workload.Batch16()
	prof, err := profile.Collect(s.Cfg, s.Mem, batch)
	if err != nil {
		b.Fatal(err)
	}
	pred, err := model.NewPredictor(s.Char, prof)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cx, err := core.NewContext(pred, s.Cfg, 15)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := cx.HCSPlus(core.HCSOptions{}, core.RefineOptions{Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterization measures the one-time offline cost of the
// full micro-benchmark characterization pass.
func BenchmarkCharacterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.NewSuite(); err != nil {
			b.Fatal(err)
		}
	}
}
