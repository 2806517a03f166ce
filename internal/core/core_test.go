package core

import (
	"sync"
	"testing"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/profile"
	"corun/internal/units"
	"corun/internal/workload"
)

var (
	charOnce   sync.Once
	sharedChar *model.Characterization
	charErr    error
)

// testChar caches the characterization pass across tests.
func testChar(t testing.TB) *model.Characterization {
	t.Helper()
	charOnce.Do(func() {
		sharedChar, charErr = model.Characterize(model.CharacterizeOptions{
			Cfg: apu.DefaultConfig(), Mem: memsys.Default(),
		})
	})
	if charErr != nil {
		t.Fatal(charErr)
	}
	return sharedChar
}

// testContext assembles the full prediction pipeline for a batch.
func testContext(t testing.TB, batch []*workload.Instance, cap units.Watts) (*Context, ExecOptions) {
	t.Helper()
	cfg := apu.DefaultConfig()
	mem := memsys.Default()
	prof, err := profile.Collect(cfg, mem, batch)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := model.NewPredictor(testChar(t), prof)
	if err != nil {
		t.Fatal(err)
	}
	cx, err := NewContext(pred, cfg, cap)
	if err != nil {
		t.Fatal(err)
	}
	return cx, ExecOptions{Cfg: cfg, Mem: mem, Cap: cap}
}

func TestNewContextValidation(t *testing.T) {
	if _, err := NewContext(nil, apu.DefaultConfig(), 0); err == nil {
		t.Error("nil oracle accepted")
	}
}

func TestBestSoloFreq(t *testing.T) {
	cx, _ := testContext(t, workload.Batch8(), 0)
	// Uncapped: max level on both devices.
	f, ok := cx.BestSoloFreq(0, apu.CPU)
	if !ok || f != cx.Cfg.MaxFreqIndex(apu.CPU) {
		t.Errorf("uncapped solo freq = %d,%v", f, ok)
	}

	capped, _ := testContext(t, workload.Batch8(), 15)
	f, ok = capped.BestSoloFreq(0, apu.CPU)
	if !ok {
		t.Fatal("15 W infeasible for solo CPU run")
	}
	if f >= capped.Cfg.MaxFreqIndex(apu.CPU) {
		t.Errorf("15 W cap should force CPU below max, got %d", f)
	}
	if capped.Oracle.CoRunPower(0, f, -1, 0) > 15 {
		t.Error("chosen level violates the cap")
	}
	// And the next level up must violate it (highest feasible).
	if capped.Oracle.CoRunPower(0, f+1, -1, 0) <= 15 {
		t.Error("a higher feasible level exists")
	}
}

func TestBestSoloAnywherePreference(t *testing.T) {
	cx, _ := testContext(t, workload.Batch8(), 0)
	d, _, _, ok := cx.BestSoloAnywhere(0) // streamcluster
	if !ok || d != apu.GPU {
		t.Errorf("streamcluster best device = %v", d)
	}
	d, _, _, ok = cx.BestSoloAnywhere(2) // dwt2d
	if !ok || d != apu.CPU {
		t.Errorf("dwt2d best device = %v", d)
	}
}

func TestChoosePairFreqsUncapped(t *testing.T) {
	cx, _ := testContext(t, workload.Batch8(), 0)
	fp, dc, dg, ok := cx.ChoosePairFreqs(2, 0) // dwt2d CPU, streamcluster GPU
	if !ok {
		t.Fatal("uncapped pair infeasible")
	}
	// Uncapped, the throughput objective picks max frequencies unless
	// contention-induced degradation outweighs the clock gain; both
	// should be near the top of their ranges.
	if fp.CPU < cx.Cfg.MaxFreqIndex(apu.CPU)-3 || fp.GPU < cx.Cfg.MaxFreqIndex(apu.GPU)-3 {
		t.Errorf("uncapped choice %v unexpectedly low", fp)
	}
	if dc < 0 || dg < 0 {
		t.Error("negative degradations")
	}
}

func TestChoosePairFreqsRespectsCap(t *testing.T) {
	cx, _ := testContext(t, workload.Batch8(), 15)
	for c := 0; c < 8; c++ {
		for g := 0; g < 8; g++ {
			if c == g {
				continue
			}
			fp, _, _, ok := cx.ChoosePairFreqs(c, g)
			if !ok {
				t.Fatalf("pair (%d,%d) infeasible under 15 W", c, g)
			}
			if p := cx.Oracle.CoRunPower(c, fp.CPU, g, fp.GPU); p > 15 {
				t.Errorf("pair (%d,%d) chosen freqs %v predicted power %v > cap", c, g, fp, p)
			}
		}
	}
}

func TestChoosePairFreqsSoloCases(t *testing.T) {
	cx, _ := testContext(t, workload.Batch8(), 15)
	fp, _, _, ok := cx.ChoosePairFreqs(-1, 3)
	if !ok {
		t.Fatal("solo GPU infeasible")
	}
	want, _ := cx.BestSoloFreq(3, apu.GPU)
	if fp.GPU != want {
		t.Errorf("solo GPU freq %d, want %d", fp.GPU, want)
	}
	fp, _, _, ok = cx.ChoosePairFreqs(2, -1)
	if !ok {
		t.Fatal("solo CPU infeasible")
	}
	want, _ = cx.BestSoloFreq(2, apu.CPU)
	if fp.CPU != want {
		t.Errorf("solo CPU freq %d, want %d", fp.CPU, want)
	}
	if _, _, _, ok = cx.ChoosePairFreqs(-1, -1); !ok {
		t.Error("all-idle pair infeasible")
	}
}

func TestMinPairDegradation(t *testing.T) {
	cx, _ := testContext(t, workload.Batch8(), 15)
	// dwt2d beside hotspot should interfere far less than beside
	// streamcluster (section III), also in the predicted tables.
	dHot, ok1 := cx.MinPairDegradation(2, 3)
	dStream, ok2 := cx.MinPairDegradation(2, 0)
	if !ok1 || !ok2 {
		t.Fatal("pairs infeasible")
	}
	if dHot >= dStream {
		t.Errorf("hotspot pairing %v should beat streamcluster pairing %v", dHot, dStream)
	}
}

func TestCategorizeMatchesPaper(t *testing.T) {
	cx, _ := testContext(t, workload.Batch8(), 0)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	prefs, err := cx.Categorize(all)
	if err != nil {
		t.Fatal(err)
	}
	names := workload.Names()
	for i, name := range names {
		want := GPUPreferred
		switch name {
		case "dwt2d":
			want = CPUPreferred
		case "lud":
			want = NonPreferred
		}
		if prefs[i] != want {
			t.Errorf("%s categorized %v, want %v", name, prefs[i], want)
		}
	}
}

func TestPartitionJobsMostCoRun(t *testing.T) {
	cx, _ := testContext(t, workload.Batch8(), 15)
	p := cx.PartitionJobs()
	// With complementary preferences and modest degradations, most of
	// the batch benefits from co-running.
	if len(p.SCo) < 6 {
		t.Errorf("only %d jobs in S_co; expected most of the batch", len(p.SCo))
	}
	if len(p.SCo)+len(p.SSeq) != 8 {
		t.Error("partition does not cover the batch")
	}
}

func TestPreferenceString(t *testing.T) {
	if CPUPreferred.String() != "CPU" || GPUPreferred.String() != "GPU" || NonPreferred.String() != "Non" {
		t.Error("preference names wrong")
	}
}

func TestScheduleValidate(t *testing.T) {
	s := &Schedule{CPUOrder: []int{0, 1}, GPUOrder: []int{2}, Exclusive: map[int]bool{}}
	if err := s.Validate(3); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	if err := s.Validate(4); err == nil {
		t.Error("missing job accepted")
	}
	dup := &Schedule{CPUOrder: []int{0, 0}, GPUOrder: []int{1}, Exclusive: map[int]bool{}}
	if err := dup.Validate(2); err == nil {
		t.Error("duplicate job accepted")
	}
	oob := &Schedule{CPUOrder: []int{5}, Exclusive: map[int]bool{}}
	if err := oob.Validate(2); err == nil {
		t.Error("out-of-range job accepted")
	}
}

func TestScheduleCloneIndependent(t *testing.T) {
	s := &Schedule{CPUOrder: []int{0}, GPUOrder: []int{1}, Exclusive: map[int]bool{1: true}}
	c := s.Clone()
	c.CPUOrder[0] = 9
	c.Exclusive[0] = true
	if s.CPUOrder[0] == 9 || s.Exclusive[0] {
		t.Error("Clone shares state")
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}
