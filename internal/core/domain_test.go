package core

import (
	"testing"

	"corun/internal/apu"
	"corun/internal/units"
	"corun/internal/workload"
)

// Acceptance criterion for domain-aware planning: a PP1-only cap must
// produce different frequency decisions than an equal package cap. The
// plane cap only constrains the GPU's own draw, so the planner may keep
// the CPU at full clock; the package cap forces a trade between both.
func TestPlanDomainCapDiffersFromPackageCap(t *testing.T) {
	const capW = units.Watts(9)
	batch := workload.Batch8()

	pp1, _ := testContext(t, batch, 0)
	pp1.Domains = apu.DomainCaps{PP1: capW}
	pkg, _ := testContext(t, batch, capW)

	if !pp1.Capped() {
		t.Fatal("PP1-only context reports uncapped")
	}

	differ := false
	for c := 0; c < 8 && !differ; c++ {
		for g := 0; g < 8; g++ {
			if c == g {
				continue
			}
			fpPlane, _, _, okPlane := pp1.ChoosePairFreqs(c, g)
			fpPkg, _, _, okPkg := pkg.ChoosePairFreqs(c, g)
			if okPlane != okPkg || fpPlane != fpPkg {
				differ = true
				break
			}
		}
	}
	if !differ {
		t.Error("PP1-only cap and equal package cap chose identical frequencies for all pairs")
	}

	// Every PP1-capped choice must respect the plane cap.
	for c := 0; c < 8; c++ {
		for g := 0; g < 8; g++ {
			if c == g {
				continue
			}
			fp, _, _, ok := pp1.ChoosePairFreqs(c, g)
			if !ok {
				t.Fatalf("pair (%d,%d) infeasible under a %v PP1 cap", c, g, capW)
			}
			if s := pp1.Oracle.CoRunSplit(c, fp.CPU, g, fp.GPU); s.PP1 > capW {
				t.Errorf("pair (%d,%d) freqs %v: PP1 %v over the %v plane cap", c, g, fp, s.PP1, capW)
			}
		}
	}
}

// Binding must name the constraint with the highest utilization at the
// chosen operating point.
func TestContextBinding(t *testing.T) {
	batch := workload.Batch8()
	cx, _ := testContext(t, batch, 0)
	cx.Domains = apu.DomainCaps{PP1: 9}
	fp, _, _, ok := cx.ChoosePairFreqs(2, 0)
	if !ok {
		t.Fatal("pair infeasible")
	}
	c, util := cx.Binding(2, fp.CPU, 0, fp.GPU)
	if c != apu.ConstraintPP1 {
		t.Errorf("binding = %v, want pp1", c)
	}
	if util <= 0 || util > 1+1e-9 {
		t.Errorf("binding utilization %v outside (0,1]", util)
	}

	// No constraints configured: nothing binds.
	free, _ := testContext(t, batch, 0)
	if c, _ := free.Binding(2, 0, 0, 0); c != apu.ConstraintNone {
		t.Errorf("unconstrained binding = %v", c)
	}
}

// The solo memo must honor plane caps: a PP0 cap lowers the best solo
// CPU level but leaves the GPU side alone.
func TestBestSoloFreqPlaneCap(t *testing.T) {
	batch := workload.Batch8()
	cx, _ := testContext(t, batch, 0)
	cx.Domains = apu.DomainCaps{PP0: 5}
	f, ok := cx.BestSoloFreq(2, apu.CPU)
	if !ok {
		t.Fatal("5 W PP0 cap infeasible for solo CPU run")
	}
	if f >= cx.Cfg.MaxFreqIndex(apu.CPU) {
		t.Errorf("5 W PP0 cap should force the CPU below max, got %d", f)
	}
	if s := cx.Oracle.CoRunSplit(2, f, -1, 0); s.PP0 > 5 {
		t.Errorf("chosen level's PP0 %v violates the plane cap", s.PP0)
	}
	gf, ok := cx.BestSoloFreq(0, apu.GPU)
	if !ok || gf != cx.Cfg.MaxFreqIndex(apu.GPU) {
		t.Errorf("PP0 cap moved the GPU solo choice to %d,%v", gf, ok)
	}
}

// With only domain caps set, the partition must still find co-runs, and
// the bound must stay a bound: below the simulated makespan and below
// the sequential sum it degenerates to when every pair reads
// infeasible.
func TestDomainOnlyCapsKeepCoRunsAndBound(t *testing.T) {
	batch := workload.Batch8()
	for _, dc := range []apu.DomainCaps{{PP1: 9}, {PP0: 6}} {
		cx, execOpts := testContext(t, batch, 0)
		cx.Domains = dc
		execOpts.Domains = dc

		if part := cx.PartitionJobs(); len(part.SCo) == 0 {
			t.Errorf("%+v: every job partitioned into S_seq", dc)
		}
		lb, err := cx.LowerBound()
		if err != nil {
			t.Fatal(err)
		}
		soloSum := units.Seconds(0)
		for i := range batch {
			_, _, best, ok := cx.BestSoloAnywhere(i)
			if !ok {
				t.Fatalf("%+v: job %d infeasible", dc, i)
			}
			soloSum += best
		}
		if lb >= soloSum {
			t.Errorf("%+v: bound %v is not below the sequential sum %v", dc, lb, soloSum)
		}
		plan, _, err := cx.HCSPlus(HCSOptions{}, RefineOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cx.Execute(plan, batch, execOpts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan < lb {
			t.Errorf("%+v: simulated makespan %v below the bound %v", dc, res.Makespan, lb)
		}
	}
}
