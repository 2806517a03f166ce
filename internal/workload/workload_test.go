package workload

import (
	"math"
	"testing"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/units"
)

// tableI holds the paper's Table I standalone seconds for calibration
// checks: CPU at 3.6 GHz, GPU at 1.25 GHz.
var tableI = map[string]struct{ cpu, gpu float64 }{
	"streamcluster": {59.71, 23.72},
	"cfd":           {49.69, 26.32},
	"dwt2d":         {24.37, 61.66},
	"hotspot":       {70.24, 28.52},
	"srad":          {51.39, 23.71},
	"lud":           {27.76, 24.83},
	"leukocyte":     {50.88, 23.08},
	"heartwall":     {54.68, 22.99},
}

func TestValidateTable(t *testing.T) {
	if err := Validate(); err != nil {
		t.Fatalf("workload table invalid: %v", err)
	}
}

func TestNamesOrder(t *testing.T) {
	want := []string{"streamcluster", "cfd", "dwt2d", "hotspot", "srad", "lud", "leukocyte", "heartwall"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("got %d names, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("name[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// Calibration: standalone times at max frequencies match Table I within
// 10%.
func TestStandaloneTimesMatchTableI(t *testing.T) {
	mem := memsys.Default()
	cfg := apu.DefaultConfig()
	fc := cfg.Freq(apu.CPU, cfg.MaxFreqIndex(apu.CPU))
	fg := cfg.Freq(apu.GPU, cfg.MaxFreqIndex(apu.GPU))
	for _, p := range Programs() {
		want, ok := tableI[p.Name]
		if !ok {
			t.Fatalf("no Table I entry for %s", p.Name)
		}
		gotCPU := float64(p.StandaloneTime(apu.CPU, fc, mem, 1))
		gotGPU := float64(p.StandaloneTime(apu.GPU, fg, mem, 1))
		if units.RelErr(gotCPU, want.cpu) > 0.10 {
			t.Errorf("%s CPU time = %.2f, want %.2f (Table I)", p.Name, gotCPU, want.cpu)
		}
		if units.RelErr(gotGPU, want.gpu) > 0.10 {
			t.Errorf("%s GPU time = %.2f, want %.2f (Table I)", p.Name, gotGPU, want.gpu)
		}
	}
}

// Calibration: preferences match the paper — dwt2d CPU-preferred, lud
// non-preferred (within 20%), everything else GPU-preferred.
func TestPreferencesMatchPaper(t *testing.T) {
	mem := memsys.Default()
	cfg := apu.DefaultConfig()
	fc := cfg.Freq(apu.CPU, cfg.MaxFreqIndex(apu.CPU))
	fg := cfg.Freq(apu.GPU, cfg.MaxFreqIndex(apu.GPU))
	for _, p := range Programs() {
		tc := float64(p.StandaloneTime(apu.CPU, fc, mem, 1))
		tg := float64(p.StandaloneTime(apu.GPU, fg, mem, 1))
		ratio := math.Max(tc, tg) / math.Min(tc, tg)
		switch p.Name {
		case "dwt2d":
			if tc >= tg || ratio <= 1.2 {
				t.Errorf("dwt2d should be CPU-preferred: cpu=%.2f gpu=%.2f", tc, tg)
			}
		case "lud":
			if ratio > 1.2 {
				t.Errorf("lud should be non-preferred: cpu=%.2f gpu=%.2f ratio=%.3f", tc, tg, ratio)
			}
		default:
			if tg >= tc || ratio <= 1.2 {
				t.Errorf("%s should be GPU-preferred: cpu=%.2f gpu=%.2f", p.Name, tc, tg)
			}
		}
	}
}

// Calibration: standalone demands stay below the solo caps at max
// frequency so Table I times are contention-free, and the GPU demand
// ordering supports the section III anecdotes (streamcluster hungry,
// hotspot quiet).
func TestStandaloneDemands(t *testing.T) {
	mem := memsys.Default()
	cfg := apu.DefaultConfig()
	fg := cfg.Freq(apu.GPU, cfg.MaxFreqIndex(apu.GPU))
	bw := map[string]float64{}
	for _, p := range Programs() {
		bw[p.Name] = float64(p.AvgStandaloneBandwidth(apu.GPU, fg, mem))
		if bw[p.Name] >= mem.Params().SoloCapGPU {
			t.Errorf("%s GPU demand %.2f hits the solo cap; Table I calibration would shift", p.Name, bw[p.Name])
		}
	}
	if bw["streamcluster"] <= 2*bw["hotspot"] {
		t.Errorf("streamcluster GPU demand (%.2f) should dwarf hotspot's (%.2f)",
			bw["streamcluster"], bw["hotspot"])
	}
}

func TestProgramsReturnsCopies(t *testing.T) {
	a := Programs()
	a[0].Work = 1
	a[0].Phases[0].BytesPerOp = 99
	b := Programs()
	if b[0].Work == 1 || b[0].Phases[0].BytesPerOp == 99 {
		t.Error("Programs() exposes shared mutable state")
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("dwt2d")
	if err != nil || p.Name != "dwt2d" {
		t.Fatalf("ByName(dwt2d) = %v, %v", p, err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("ByName accepted an unknown program")
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustByName on unknown program did not panic")
		}
	}()
	MustByName("nonesuch")
}

func TestBatch8(t *testing.T) {
	b := Batch8()
	if len(b) != 8 {
		t.Fatalf("Batch8 has %d instances, want 8", len(b))
	}
	for i, in := range b {
		if in.ID != i {
			t.Errorf("instance %d has ID %d", i, in.ID)
		}
		if in.Scale != 1.0 {
			t.Errorf("instance %s has scale %v, want 1.0", in.Label, in.Scale)
		}
	}
}

func TestBatch16(t *testing.T) {
	b := Batch16()
	if len(b) != 16 {
		t.Fatalf("Batch16 has %d instances, want 16", len(b))
	}
	counts := map[string]int{}
	scales := map[string][]float64{}
	for _, in := range b {
		counts[in.Prog.Name]++
		scales[in.Prog.Name] = append(scales[in.Prog.Name], in.Scale)
	}
	for name, n := range counts {
		if n != 2 {
			t.Errorf("%s appears %d times, want 2", name, n)
		}
		if scales[name][0] == scales[name][1] {
			t.Errorf("%s instances share the same input scale", name)
		}
	}
	// IDs unique.
	seen := map[int]bool{}
	for _, in := range b {
		if seen[in.ID] {
			t.Errorf("duplicate instance ID %d", in.ID)
		}
		seen[in.ID] = true
	}
}

func TestSubset(t *testing.T) {
	b, err := Subset("streamcluster", "cfd", "dwt2d", "hotspot")
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 4 || b[2].Label != "dwt2d" {
		t.Errorf("Subset built wrong batch: %v", b)
	}
	if _, err := Subset("bogus"); err == nil {
		t.Error("Subset accepted an unknown name")
	}
}

func TestInstanceString(t *testing.T) {
	in := &Instance{Label: "cfd#2"}
	if in.String() != "cfd#2" {
		t.Errorf("String() = %q", in.String())
	}
}
