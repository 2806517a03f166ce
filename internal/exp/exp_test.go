package exp

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

var (
	suiteOnce sync.Once
	suiteVal  *Suite
	suiteErr  error
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() { suiteVal, suiteErr = NewSuite() })
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteVal
}

func TestFigure2(t *testing.T) {
	s := testSuite(t)
	r, err := s.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		wantGPU := row.Name != "dwt2d"
		if row.PrefersGPU != wantGPU {
			t.Errorf("%s prefersGPU=%v, want %v", row.Name, row.PrefersGPU, wantGPU)
		}
		// Figure 2's speedups are 1.8x-2.5x on the preferred device.
		if row.SpeedupOnPreferred < 1.5 || row.SpeedupOnPreferred > 3.0 {
			t.Errorf("%s preferred-device speedup %.2f outside [1.5,3.0]", row.Name, row.SpeedupOnPreferred)
		}
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dwt2d") {
		t.Error("render missing program name")
	}
}

func TestExample3(t *testing.T) {
	s := testSuite(t)
	r, err := s.Example3()
	if err != nil {
		t.Fatal(err)
	}
	// Section III anecdotes: heavy pairing hurts dwt2d far more than
	// the mild pairing; GPU co-runners barely notice.
	if r.Heavy < 0.55 || r.Heavy > 1.15 {
		t.Errorf("heavy slowdown %.2f, want ~0.81", r.Heavy)
	}
	if r.Mild < 0.05 || r.Mild > 0.35 {
		t.Errorf("mild slowdown %.2f, want ~0.17", r.Mild)
	}
	if r.HeavyCo > 0.15 || r.MildCo > 0.15 {
		t.Errorf("GPU-side slowdowns %.2f/%.2f, want small", r.HeavyCo, r.MildCo)
	}
	// The enumeration's best/worst spread is large (paper: 2.3x).
	if r.Ratio < 1.6 {
		t.Errorf("best/worst co-schedule ratio %.2f, want > 1.6 (paper 2.3)", r.Ratio)
	}
	if r.NumSchedules < 100 {
		t.Errorf("only %d configurations enumerated", r.NumSchedules)
	}
}

func TestFigures5And6(t *testing.T) {
	s := testSuite(t)
	r, err := s.Figures5And6()
	if err != nil {
		t.Fatal(err)
	}
	if r.CPUMax <= r.GPUMax {
		t.Errorf("CPU max degradation %.2f should exceed GPU max %.2f", r.CPUMax, r.GPUMax)
	}
	if r.CPUMax < 0.40 || r.CPUMax > 0.90 {
		t.Errorf("CPU max %.2f outside the ~65%% region", r.CPUMax)
	}
	if r.GPUMax < 0.25 || r.GPUMax > 0.60 {
		t.Errorf("GPU max %.2f outside the ~45%% region", r.GPUMax)
	}
	// A sizable portion of the contended space leaves the CPU below
	// 20% degradation (paper: about half).
	if r.CPUFracBelow20 < 0.30 {
		t.Errorf("CPU <=20%% fraction %.2f too small", r.CPUFracBelow20)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Figure 5") || !strings.Contains(b.String(), "Figure 6") {
		t.Error("render missing figure headers")
	}
}

func TestFigure7(t *testing.T) {
	s := testSuite(t)
	r, err := s.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []Fig7Setting{r.High, r.Medium} {
		if len(set.Pairs) != 64 {
			t.Fatalf("%s: %d pairs, want 64", set.Label, len(set.Pairs))
		}
		// The model must be clearly informative: most pairs within 20%
		// (paper: >70%) and a meaningful share within 10%.
		if set.Below20 < 0.55 {
			t.Errorf("%s: only %.0f%% of pairs below 20%% error", set.Label, 100*set.Below20)
		}
		if set.Below10 < 0.30 {
			t.Errorf("%s: only %.0f%% of pairs below 10%% error", set.Label, 100*set.Below10)
		}
		if set.Mean > 0.30 {
			t.Errorf("%s: mean error %.0f%% too large", set.Label, 100*set.Mean)
		}
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if err := r.High.WriteWorst(&b, 3); err != nil {
		t.Fatal(err)
	}
	if got, want := predictedDigest(r), "7d7878dbc31e705c"; got != want {
		t.Errorf("predicted degradations digest %s, want %s", got, want)
	}
}

// predictedDigest hashes the float64 bits of a Figure 7 run's 64 × 2
// predicted degradations (high setting, then medium), so a test pins
// every one of them bit for bit.
func predictedDigest(r *Fig7Result) string {
	h := sha256.New()
	for _, set := range []Fig7Setting{r.High, r.Medium} {
		for _, p := range set.Pairs {
			fmt.Fprintf(h, "%x ", math.Float64bits(p.Predicted))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func TestFigure8(t *testing.T) {
	s := testSuite(t)
	r, err := s.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Pairs) != 64 {
		t.Fatalf("%d pairs, want 64", len(r.Pairs))
	}
	if r.Mean > 0.05 {
		t.Errorf("mean power error %.1f%%, paper reports ~1.92%%", 100*r.Mean)
	}
	if r.MaxErr > 0.10 {
		t.Errorf("max power error %.1f%%, paper reports none above 8%%", 100*r.MaxErr)
	}
	if r.Below2 < 0.40 {
		t.Errorf("only %.0f%% of pairs below 2%% error (paper: 69%%)", 100*r.Below2)
	}
}

func TestFigure9(t *testing.T) {
	s := testSuite(t)
	r, err := s.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Traces) != 4 {
		t.Fatalf("%d traces, want 4", len(r.Traces))
	}
	for _, tr := range r.Traces {
		if tr.Trace.Len() < 5 {
			t.Errorf("%s: only %d samples", tr.Label, tr.Trace.Len())
		}
		if float64(tr.AvgPower) > float64(r.Cap) {
			t.Errorf("%s: average power %v above the cap", tr.Label, tr.AvgPower)
		}
		// Excursions above the cap stay small (paper: < 2 W).
		if float64(tr.MaxExcess) > 2 {
			t.Errorf("%s: max excess %v above 2 W", tr.Label, tr.MaxExcess)
		}
	}
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "time_s,") {
		t.Error("CSV header missing")
	}
}

func TestTableI(t *testing.T) {
	s := testSuite(t)
	r, err := s.TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("%d rows, want 8", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MinCoRunCPU < row.StandaloneCPU || row.MinCoRunGPU < row.StandaloneGPU {
			t.Errorf("%s: min co-run below standalone", row.Name)
		}
		want := "GPU"
		switch row.Name {
		case "dwt2d":
			want = "CPU"
		case "lud":
			want = "Non"
		}
		if row.Preference.String() != want {
			t.Errorf("%s preference %v, want %s", row.Name, row.Preference, want)
		}
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Preferred") {
		t.Error("render missing preference row")
	}
}

func TestFigure10Shape(t *testing.T) {
	s := testSuite(t)
	r, err := s.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	// Paper ordering: HCS+ >= HCS > Default_G >= Default_C > Random.
	// The refinement optimizes the predicted metric; allow a little
	// execution noise.
	if float64(r.HCSPlus) > float64(r.HCS)*1.02 {
		t.Errorf("HCS+ (%v) worse than HCS (%v)", r.HCSPlus, r.HCS)
	}
	if r.HCS >= r.DefaultG {
		t.Errorf("HCS (%v) should beat Default_G (%v)", r.HCS, r.DefaultG)
	}
	if r.DefaultG > r.DefaultC {
		t.Errorf("Default_G (%v) should not lose to Default_C (%v)", r.DefaultG, r.DefaultC)
	}
	if s10 := r.SpeedupOverRandom(r.HCSPlus); s10 < 0.25 {
		t.Errorf("HCS+ speedup over Random %.0f%%, want >25%% (paper 41%%)", 100*s10)
	}
	if r.Bound > r.HCSPlus {
		t.Errorf("lower bound %v above HCS+ %v", r.Bound, r.HCSPlus)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
}

func TestFigure11Shape(t *testing.T) {
	s := testSuite(t)
	r, err := s.Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 16 {
		t.Fatalf("N = %d", r.N)
	}
	// Defaults fall below Random at 16 instances.
	if r.SpeedupOverRandom(r.DefaultG) > 0 {
		t.Errorf("Default_G should degrade vs Random, got %s", pct(r.SpeedupOverRandom(r.DefaultG)))
	}
	if r.SpeedupOverRandom(r.DefaultC) > 0 {
		t.Errorf("Default_C should degrade vs Random, got %s", pct(r.SpeedupOverRandom(r.DefaultC)))
	}
	if sp := r.SpeedupOverRandom(r.HCSPlus); sp < 0.25 {
		t.Errorf("HCS+ speedup %.0f%%, want >25%% (paper 37%%)", 100*sp)
	}
	// The headline: HCS+ over the default schedules by ~46%.
	if gain := float64(r.DefaultG)/float64(r.HCSPlus) - 1; gain < 0.35 {
		t.Errorf("HCS+ over Default_G %.0f%%, want >35%% (paper 46%%)", 100*gain)
	}
}

func TestOverheadTiny(t *testing.T) {
	s := testSuite(t)
	r, err := s.Overhead()
	if err != nil {
		t.Fatal(err)
	}
	// The simulated makespan is hundreds of seconds; the scheduler must
	// be a negligible fraction of it even compared to wall time.
	if r.Fraction > 0.005 {
		t.Errorf("scheduling overhead fraction %.4f too large", r.Fraction)
	}
}

func TestAblations(t *testing.T) {
	s := testSuite(t)
	r, err := s.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 7 {
		t.Fatalf("only %d ablation rows", len(r.Rows))
	}
	byName := map[string]AblationRow{}
	for _, row := range r.Rows {
		byName[row.Name] = row
		if row.Makespan <= 0 {
			t.Errorf("%s: non-positive makespan", row.Name)
		}
	}
	// Removing refinement must not help (it only keeps improvements on
	// the predicted metric; allow small execution-noise slack).
	if row := byName["no-refinement"]; row.DeltaVsFull < -0.05 {
		t.Errorf("removing refinement improved execution by %s; suspicious", pct(-row.DeltaVsFull))
	}
	// The two arms that swap the model out, pinned bit for bit.
	for name, want := range map[string]uint64{"calibrated-model": 0x407716fdb91cbf6f, "oracle-degradations": 0x4079f5688446caae} {
		if got := math.Float64bits(float64(byName[name].Makespan)); got != want {
			t.Errorf("%s makespan bits %#x, want %#x", name, got, want)
		}
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
}
