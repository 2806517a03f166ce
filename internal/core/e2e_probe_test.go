package core

import (
	"testing"

	"corun/internal/sim"
	"corun/internal/workload"
)

// TestProbeFigure10 prints the full comparison; used during calibration
// and kept as a smoke test (assertions live in hcs_test.go).
func TestProbeFigure10(t *testing.T) {
	for _, n := range []int{8, 16} {
		batch := workload.Batch8()
		if n == 16 {
			batch = workload.Batch16()
		}
		cx, opts := testContext(t, batch, 15)

		randAvg := randomAverage(t, opts, batch, 20, 1)
		defG, err := ExecuteDefault(opts, batch, cx.Oracle, sim.GPUBiased)
		if err != nil {
			t.Fatal(err)
		}
		defC, err := ExecuteDefault(opts, batch, cx.Oracle, sim.CPUBiased)
		if err != nil {
			t.Fatal(err)
		}
		hcs, err := cx.HCS(HCSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		hcsRes, err := cx.Execute(hcs, batch, opts)
		if err != nil {
			t.Fatal(err)
		}
		hcsPlus, _, err := cx.HCSPlus(HCSOptions{}, RefineOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		hcsPlusRes, err := cx.Execute(hcsPlus, batch, opts)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := cx.LowerBound()
		if err != nil {
			t.Fatal(err)
		}
		r := float64(randAvg)
		t.Logf("n=%d: Random=%.1f Default_G=%.1f (%.0f%%) Default_C=%.1f (%.0f%%) HCS=%.1f (%.0f%%) HCS+=%.1f (%.0f%%) Bound=%.1f (%.0f%%)",
			n, r,
			defG.Makespan, 100*(r/float64(defG.Makespan)-1),
			defC.Makespan, 100*(r/float64(defC.Makespan)-1),
			hcsRes.Makespan, 100*(r/float64(hcsRes.Makespan)-1),
			hcsPlusRes.Makespan, 100*(r/float64(hcsPlusRes.Makespan)-1),
			bound, 100*(r/float64(bound)-1))
		t.Logf("n=%d: HCS schedule: %v", n, hcs)
		t.Logf("n=%d: HCS cap violations: %d (max excess %.2f W)", n, hcsRes.CapViolations, float64(hcsRes.MaxExcess))
	}
}
