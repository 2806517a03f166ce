package corun

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// rescaledFig11 copies the Fig. 11 batch with a seeded input size per
// instance (uniform in [0.8, 1.3), four decimals), the epoch stream
// corunmark's plan-fig11 workload plans.
func rescaledFig11(base []*Instance, rng *rand.Rand) []*Instance {
	out := make([]*Instance, len(base))
	for i, in := range base {
		c := *in
		c.Scale = float64(8000+rng.Intn(5000)) / 10000
		out[i] = &c
	}
	return out
}

// planEpoch is one daemon epoch through the facade: profile and model
// the batch, plan it with HCS+, run the plan.
func planEpoch(sys *System, batch []*Instance, seed int64) (*Schedule, *Report, error) {
	w, err := sys.Prepare(batch)
	if err != nil {
		return nil, nil, err
	}
	plan, err := w.ScheduleSeeded("hcs+", seed)
	if err != nil {
		return nil, nil, err
	}
	report, err := w.Run(plan)
	return plan, report, err
}

// fig11Golden is the SHA-256 over the first 40 rescaled Fig. 11 epochs
// of each seed — both dispatch orders, the exclusive set and the bits
// of the simulated makespan, hashed as corunmark's plan-fig11 digest
// hashes them — recorded at the commit before the characterization-
// scoped pair tables. Anything that caches a prediction must return
// the float64 the uncached model computes, so these never change
// unless the plans do.
var fig11Golden = map[int64]string{
	41: "414620846994f626264128874a578c01c523022aacae4f8b92e9cf946b58e4f7",
	42: "bf9ef4bb74b9af91669e8f04821636d3668bc0ff37d225a516cf12eee375d8c9",
	43: "4886c6c8c6287633c6edf59e582caa347cd4676758ff01f369c7f8e2bbab706c",
}

func TestFig11EpochsGolden(t *testing.T) {
	sys := capped15(t)
	base := Batch16()
	for seed := int64(41); seed <= 43; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := sha256.New()
		for epoch := 0; epoch < 40; epoch++ {
			plan, report, err := planEpoch(sys, rescaledFig11(base, rng), seed+int64(epoch))
			if err != nil {
				t.Fatalf("seed %d epoch %d: %v", seed, epoch, err)
			}
			var exclusive []int
			for j, on := range plan.Exclusive {
				if on {
					exclusive = append(exclusive, j)
				}
			}
			sort.Ints(exclusive)
			fmt.Fprintf(h, "%v|%v|%v|%x\n", plan.CPUOrder, plan.GPUOrder, exclusive, math.Float64bits(float64(report.Makespan)))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != fig11Golden[seed] {
			t.Errorf("seed %d: digest %s, want %s", seed, got, fig11Golden[seed])
		}
	}
}

// BenchmarkPlanEpochFig11 times one epoch of the Fig. 11 batch, rescaled
// per iteration. warm plans every epoch over one System whose
// degradation tables an untimed first epoch has filled: a daemon's
// steady state. cold reloads the characterization before every epoch
// (untimed), so each one fills the tables from nothing: a daemon's first
// epoch. warm-capchurn sits between the two (see there).
func BenchmarkPlanEpochFig11(b *testing.B) {
	base := Batch16()
	run := func(b *testing.B, system func() *System) {
		rng := rand.New(rand.NewSource(41))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys, batch := system(), rescaledFig11(base, rng)
			b.StartTimer()
			if _, _, err := planEpoch(sys, batch, 41+int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	sys, err := NewSystem(WithPowerCap(15))
	if err != nil {
		b.Fatal(err)
	}
	var saved bytes.Buffer
	if err := sys.SaveCharacterization(&saved); err != nil {
		b.Fatal(err)
	}
	b.Run("warm", func(b *testing.B) {
		if _, _, err := planEpoch(sys, base, 41); err != nil {
			b.Fatal(err)
		}
		run(b, func() *System { return sys })
	})
	// warm-capchurn is warm under a new continuous cap every epoch, as
	// a fleet node sees between rebalances: the pair tables stay
	// resident, but no feasible list is, so every epoch takes the miss
	// path of the feasible-list cache.
	b.Run("warm-capchurn", func(b *testing.B) {
		if _, _, err := planEpoch(sys, base, 41); err != nil {
			b.Fatal(err)
		}
		caps := rand.New(rand.NewSource(42))
		run(b, func() *System {
			churned := *sys
			churned.cap = Watts(14 + 2*caps.Float64())
			return &churned
		})
	})
	b.Run("cold", func(b *testing.B) {
		run(b, func() *System {
			fresh, err := NewSystem(WithPowerCap(15), WithCharacterizationFrom(bytes.NewReader(saved.Bytes())))
			if err != nil {
				b.Fatal(err)
			}
			return fresh
		})
	})
}

// warmEpochs returns a function that plans and runs one warm Fig. 11
// epoch through the facade (BenchmarkPlanEpochFig11/warm) per call, for
// runs+1 calls (testing.AllocsPerRun warms up with one), over batches
// built beforehand so that a counter around the calls sees the epochs
// alone.
func warmEpochs(t *testing.T, runs int) func() {
	sys := capped15(t)
	base := Batch16()
	if _, _, err := planEpoch(sys, base, 41); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	batches := make([][]*Instance, runs+1)
	for i := range batches {
		batches[i] = rescaledFig11(base, rng)
	}
	var i int
	return func() {
		if _, _, err := planEpoch(sys, batches[i], 41+int64(i)); err != nil {
			t.Fatal(err)
		}
		i++
	}
}

// warmEpochAllocs is the allocation count of one warm Fig. 11 epoch
// through the facade (BenchmarkPlanEpochFig11/warm), the batch built
// outside the count. A change that lowers it lowers it here in the
// same diff; one that raises it says why.
const warmEpochAllocs = 202

func TestWarmEpochAllocs(t *testing.T) {
	const runs = 20
	if a := testing.AllocsPerRun(runs, warmEpochs(t, runs)); a > warmEpochAllocs {
		t.Errorf("a warm Fig. 11 epoch allocates %v times, ceiling %d", a, warmEpochAllocs)
	}
}

// warmEpochBytes is TestWarmEpochAllocs' epoch in heap bytes, which a
// count cannot see: 67,085 measured on linux/amd64, plus a 2,048-byte
// margin for size-class rounding on other toolchains (-race reads
// 67,133). A change that lowers it lowers it here in the same diff;
// one that raises it says why.
const warmEpochBytes = 67_085 + 2_048

func TestWarmEpochBytes(t *testing.T) {
	const runs = 20
	if b := bytesPerRun(runs, warmEpochs(t, runs)); b > warmEpochBytes {
		t.Errorf("a warm Fig. 11 epoch allocates %d bytes, ceiling %d", b, warmEpochBytes)
	}
}

// bytesPerRun is testing.AllocsPerRun for heap bytes: the mean over runs
// calls of f, after one warm-up call, on one P.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// Once the epochs have planned every program pair of the Fig. 11 batch
// under the cap — two epochs for most seeds, three for 42 — a warm epoch
// interpolates nothing and builds no feasible list: the pair tables and
// the feasible-list cache answer it all. A PR that adds work to the warm
// path shows up here first.
func TestWarmEpochComputesNothingNew(t *testing.T) {
	var saved bytes.Buffer
	if err := capped15(t).SaveCharacterization(&saved); err != nil {
		t.Fatal(err)
	}
	base := Batch16()
	const allPairs = 8 * 8 // Batch16 holds each of the eight programs twice
	for seed := int64(41); seed <= 45; seed++ {
		sys, err := NewSystem(WithPowerCap(15), WithCharacterizationFrom(bytes.NewReader(saved.Bytes())))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		epoch := int64(0)
		plan := func() {
			t.Helper()
			if _, _, err := planEpoch(sys, rescaledFig11(base, rng), seed+epoch); err != nil {
				t.Fatal(err)
			}
			epoch++
		}
		for sys.char.PairCacheStats().Tables < allPairs {
			if epoch == 3 {
				t.Fatalf("seed %d: %d epochs left program pairs unplanned: %+v", seed, epoch, sys.char.PairCacheStats())
			}
			plan()
		}
		before := sys.char.PairCacheStats()
		for k := 0; k < 5; k++ {
			plan()
		}
		if after := sys.char.PairCacheStats(); after != before {
			t.Errorf("seed %d: warm epochs moved the pair cache from %+v to %+v", seed, before, after)
		}
		// A second cap of the same feasibility class for every pair —
		// no predicted power lies within a nanowatt above 15 W — finds
		// every list by its class and traverses nothing.
		sys.cap = 15 + 1e-9
		for k := 0; k < 5; k++ {
			plan()
		}
		if after := sys.char.PairCacheStats(); after != before {
			t.Errorf("seed %d: warm epochs under a second cap of the class moved the pair cache from %+v to %+v", seed, before, after)
		}
	}
}

// A System that has planned more distinct custom programs than its pair
// tables hold keeps planning, and plans each batch as a System that has
// seen nothing else does.
func TestCustomProgramsBeyondTheTableBound(t *testing.T) {
	var saved bytes.Buffer
	shared := capped15(t)
	if err := shared.SaveCharacterization(&saved); err != nil {
		t.Fatal(err)
	}
	const perBatch, batches = 5, 30 // 150 programs; the bound is 64 ladders
	for b := 0; b < batches; b++ {
		batch := make([]*Instance, perBatch)
		for i := range batch {
			k := float64(b*perBatch + i)
			in, err := NewInstance(ProgramSpec{
				Name: fmt.Sprintf("custom-%d-%d", b, i), Work: 60,
				CPUEff: 0.6, GPUEff: 0.8 + 0.4*float64(i), CPUSens: 0.25, GPUSens: 0.1,
				Phases: []PhaseSpec{{Frac: 0.7, BytesPerOp: 0.3 + 0.011*k}, {Frac: 0.3, BytesPerOp: 0.2}},
			}, i, 1)
			if err != nil {
				t.Fatal(err)
			}
			batch[i] = in
		}
		fresh, err := NewSystem(WithPowerCap(15), WithCharacterizationFrom(bytes.NewReader(saved.Bytes())))
		if err != nil {
			t.Fatal(err)
		}
		wantPlan, wantReport, err := planEpoch(fresh, batch, int64(b))
		if err != nil {
			t.Fatal(err)
		}
		gotPlan, gotReport, err := planEpoch(shared, batch, int64(b))
		if err != nil {
			t.Fatal(err)
		}
		if gotPlan.String() != wantPlan.String() || gotReport.Makespan != wantReport.Makespan {
			t.Fatalf("batch %d: %v (%v) over the long-lived System, %v (%v) over a fresh one",
				b, gotPlan, gotReport.Makespan, wantPlan, wantReport.Makespan)
		}
	}
}
