package exp

import (
	"math"
	"strings"
	"testing"

	"corun/internal/core"
	"corun/internal/units"
	"corun/internal/workload"
)

func TestEnergy(t *testing.T) {
	s := testSuite(t)
	r, err := s.Energy()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(r.Rows))
	}
	byName := map[string]EnergyRow{}
	for _, row := range r.Rows {
		byName[row.Policy] = row
		if row.EnergyJ <= 0 || row.EDP <= 0 {
			t.Errorf("%s: non-positive energy/EDP", row.Policy)
		}
		// Under a binding cap, average power stays below it.
		if float64(row.AvgPower) > float64(r.Cap) {
			t.Errorf("%s: avg power %v above cap", row.Policy, row.AvgPower)
		}
	}
	// Faster schedules at a similar power level mean lower EDP: the
	// co-scheduler must clearly win the efficiency metric.
	if byName["HCS+"].EDP >= byName["Random"].EDP {
		t.Errorf("HCS+ EDP %v should beat Random %v", byName["HCS+"].EDP, byName["Random"].EDP)
	}
	if byName["HCS+"].EnergyJ > byName["Random"].EnergyJ*1.1 {
		t.Errorf("HCS+ energy %v should not exceed Random %v by >10%%",
			byName["HCS+"].EnergyJ, byName["Random"].EnergyJ)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "EDP") {
		t.Error("render missing EDP column")
	}
}

func TestSplitStudy(t *testing.T) {
	s := testSuite(t)
	r, err := s.Split()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("%d rows, want 8", len(r.Rows))
	}
	// Slow synchronization must shrink the winner set (the cited
	// study's regime).
	if r.WinsSlowSync > r.WinsDefault {
		t.Errorf("slow sync has %d winners vs %d default; costs should hurt",
			r.WinsSlowSync, r.WinsDefault)
	}
	if r.WinsSlowSync > 2 {
		t.Errorf("%d winners under slow sync; splitting should rarely win there", r.WinsSlowSync)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
}

func TestRobustness(t *testing.T) {
	s := testSuite(t)
	r, err := s.Robustness(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(r.Rows))
	}
	// The co-scheduler must win on workloads it was never calibrated
	// for — in every sampled batch.
	if r.Wins != len(r.Rows) {
		t.Errorf("HCS+ won only %d/%d random workloads", r.Wins, len(r.Rows))
	}
	if r.Summary.Mean < 0.15 {
		t.Errorf("mean speedup %.0f%% on random workloads; expected a clear win", 100*r.Summary.Mean)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Robustness(0, 1); err == nil {
		t.Error("zero workloads accepted")
	}
}

func TestFairness(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fairness()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(r.Rows))
	}
	byName := map[string]FairnessRow{}
	for _, row := range r.Rows {
		byName[row.Policy] = row
		if row.ANTT < 1 {
			t.Errorf("%s: ANTT %.2f below 1; turnaround cannot beat solo", row.Policy, row.ANTT)
		}
		if row.WorstNTT < row.ANTT {
			t.Errorf("%s: worst NTT below the average", row.Policy)
		}
		if row.STP <= 0 || row.STP > float64(r.N) {
			t.Errorf("%s: STP %.2f outside (0, %d]", row.Policy, row.STP, r.N)
		}
	}
	// The co-scheduler's makespan win must not come from starving
	// jobs: it wins ANTT and STP too.
	if byName["HCS+"].ANTT >= byName["Random"].ANTT {
		t.Errorf("HCS+ ANTT %.2f should beat Random %.2f", byName["HCS+"].ANTT, byName["Random"].ANTT)
	}
	if byName["HCS+"].STP <= byName["Random"].STP {
		t.Errorf("HCS+ STP %.2f should beat Random %.2f", byName["HCS+"].STP, byName["Random"].STP)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "ANTT") {
		t.Error("render missing ANTT")
	}
}

func TestSensitivity(t *testing.T) {
	s := testSuite(t)
	r, err := s.Sensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 7 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	if !r.AllHold {
		for _, row := range r.Rows {
			t.Logf("%s: %+.1f%%", row.Name, 100*row.Speedup)
		}
		t.Error("a contention-model perturbation broke the headline conclusion")
	}
	// Every perturbed machine still shows a solid gain.
	for _, row := range r.Rows {
		if row.Speedup < 0.10 {
			t.Errorf("%s: HCS+ gain %.1f%% too thin", row.Name, 100*row.Speedup)
		}
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
}

func TestScalability(t *testing.T) {
	s := testSuite(t)
	r, err := s.Scalability([]int{4, 8, 16}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Speedup < 0.05 {
			t.Errorf("N=%d: HCS+ gain %.1f%% too thin", row.N, 100*row.Speedup)
		}
		// Planning is near-linear: even 16 jobs plan in well under a
		// second of wall time.
		if row.PlanTime.Seconds() > 2 {
			t.Errorf("N=%d: planning took %v", row.N, row.PlanTime)
		}
	}
	// Makespans grow with batch size.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].HCSPlus <= r.Rows[i-1].HCSPlus {
			t.Errorf("HCS+ makespan did not grow from N=%d to N=%d", r.Rows[i-1].N, r.Rows[i].N)
		}
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
}

func TestCapEnforcement(t *testing.T) {
	s := testSuite(t)
	r, err := s.CapEnforcement()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	byName := map[string]CapEnforceRow{}
	for _, row := range r.Rows {
		byName[row.Mechanism] = row
	}
	planned := byName["planned (HCS+)"]
	hard := byName["hardware clamp"]
	// The hardware clamp never lets a sample over the cap.
	if hard.Violations != 0 {
		t.Errorf("hardware clamp left %d violations", hard.Violations)
	}
	// Model-based planning should not lose to blind enforcement on the
	// same dispatch order.
	if float64(planned.Makespan) > float64(hard.Makespan)*1.05 {
		t.Errorf("planned %v clearly worse than hardware clamp %v", planned.Makespan, hard.Makespan)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
}

func TestCluster(t *testing.T) {
	s := testSuite(t)
	r, err := s.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 6 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	byLabel := map[string]ClusterRow{}
	for _, row := range r.Rows {
		byLabel[row.Label] = row
		if row.Done <= 0 || row.MeanResponse <= 0 {
			t.Errorf("%s: empty outcome", row.Label)
		}
	}
	// Fleet scaling helps.
	if byLabel["4-node hcs+ affinity"].Done >= byLabel["1-node hcs+ affinity"].Done {
		t.Error("4 nodes not faster than 1")
	}
	// Per-node co-scheduling beats random on the same fleet.
	if byLabel["3-node hcs+ affinity"].MeanResponse >= byLabel["3-node random affinity"].MeanResponse {
		t.Error("HCS+ per node not better than random per node")
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
}

// Every experiment result renders without error (the renderers are the
// CLI's surface; this pins them all).
func TestAllRenderersRun(t *testing.T) {
	s := testSuite(t)
	var b strings.Builder
	if r, err := s.Example3(); err != nil {
		t.Fatal(err)
	} else if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if r, err := s.Figure8(); err != nil {
		t.Fatal(err)
	} else if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if r, err := s.Figure9(); err != nil {
		t.Fatal(err)
	} else if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if r, err := s.Overhead(); err != nil {
		t.Fatal(err)
	} else if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() == 0 {
		t.Error("renderers produced nothing")
	}
}

// The generalized speedup study works on custom workloads and caps.
func TestSpeedupStudyCustom(t *testing.T) {
	s := testSuite(t)
	batch, err := workload.Generate(workload.GenOptions{N: 6, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.speedupStudy(batch, 18, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 6 || r.Cap != 18 {
		t.Errorf("study metadata wrong: %+v", r)
	}
	if r.SpeedupOverRandom(r.HCSPlus) <= 0 {
		t.Errorf("HCS+ did not beat Random on the custom batch")
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
}

// Calibration measurably improves the Figure 7 error distribution.
func TestFigure7Calibrated(t *testing.T) {
	s := testSuite(t)
	base, err := s.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	cal, err := s.Figure7Calibrated()
	if err != nil {
		t.Fatal(err)
	}
	if cal.High.Mean >= base.High.Mean {
		t.Errorf("calibration did not improve high-setting mean: %.3f -> %.3f",
			base.High.Mean, cal.High.Mean)
	}
	if cal.High.Below20 < base.High.Below20 {
		t.Errorf("calibration shrank the <20%% share: %.2f -> %.2f",
			base.High.Below20, cal.High.Below20)
	}
	t.Logf("Fig7 high-setting mean error: base %.1f%%, calibrated %.1f%%",
		100*base.High.Mean, 100*cal.High.Mean)
	if got, want := predictedDigest(cal), "80a6837d1c6726e2"; got != want {
		t.Errorf("calibrated predicted degradations digest %s, want %s", got, want)
	}
}

func TestOnlineStudy(t *testing.T) {
	s := testSuite(t)
	r, err := s.Online()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	byName := map[string]OnlineRow{}
	for _, row := range r.Rows {
		byName[row.Policy] = row
	}
	if byName["hcs+"].MeanResponse >= byName["random"].MeanResponse {
		t.Errorf("hcs+ response %v should beat random %v",
			byName["hcs+"].MeanResponse, byName["random"].MeanResponse)
	}
	if byName["hcs+"].EnergyJ >= byName["random"].EnergyJ {
		t.Errorf("hcs+ energy %v should beat random %v",
			byName["hcs+"].EnergyJ, byName["random"].EnergyJ)
	}
	// Each row is pinned bit for bit, so a change to Serve's epoch loop
	// that moves a plan, a simulation or the clock shows here (hcs+:
	// 720.7 s done, 56.7 s mean and 143.5 s max response, 7,934 J, 16
	// epochs).
	for _, want := range []struct {
		policy string
		bits   [4]uint64 // Done, MeanResponse, MaxResponse, EnergyJ
		epochs int
	}{
		{"hcs+", [4]uint64{0x40868596e7ab4b6c, 0x404c5dc089d831b8, 0x4061f12d5cc67290, 0x40befe39bf54fbae}, 16},
		{"hcs", [4]uint64{0x40868596e7ab4b6c, 0x404c5dc089d831b8, 0x4061f12d5cc67290, 0x40befe39bf54fbae}, 16},
		{"default", [4]uint64{0x40886e0427ea4914, 0x405409818b887e34, 0x406a47acd0d3c7e0, 0x40c371ce02a9cb0b}, 13},
		{"random", [4]uint64{0x408740eafbe2f4b0, 0x4057d84f16135e2c, 0x40697116474e76f7, 0x40c419c069139c1b}, 11},
	} {
		row := byName[want.policy]
		got := [4]uint64{
			math.Float64bits(float64(row.Done)), math.Float64bits(float64(row.MeanResponse)),
			math.Float64bits(float64(row.MaxResponse)), math.Float64bits(row.EnergyJ),
		}
		if got != want.bits || row.Epochs != want.epochs {
			t.Errorf("%s: done %v, mean %v, max %v, %v J, %d epochs (bits %#x), want bits %#x and %d epochs",
				want.policy, row.Done, row.MeanResponse, row.MaxResponse, row.EnergyJ, row.Epochs,
				got, want.bits, want.epochs)
		}
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
}

// The Random arm is averaged in one place; it needs a seed to average.
func TestRandomAverageValidation(t *testing.T) {
	s := testSuite(t)
	batch := workload.Batch8()
	cx, _, err := s.context(batch, 15)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.randomAverage(cx, batch, 0); err == nil {
		t.Error("zero seeds accepted")
	}
	avg, err := s.randomAverage(cx, batch, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Seeds 1..3, summed in order, are what the figures have always averaged.
	sum := 0.0
	for seed := int64(1); seed <= 3; seed++ {
		r, err := core.ExecuteRandom(s.execOptions(15), batch, seed)
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(r.Makespan)
	}
	if want := units.Seconds(sum / 3); avg != want || avg <= 0 {
		t.Errorf("randomAverage = %v, want %v", avg, want)
	}
}
