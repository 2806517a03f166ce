package corun

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

var (
	sysOnce sync.Once
	sysVal  *System
	sysErr  error
)

// capped15 caches a 15 W system across tests (characterization is the
// expensive part).
func capped15(t *testing.T) *System {
	t.Helper()
	sysOnce.Do(func() { sysVal, sysErr = NewSystem(WithPowerCap(15)) })
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysVal
}

func TestNewSystemDefaults(t *testing.T) {
	s, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if s.PowerCap() != 0 {
		t.Errorf("default cap = %v, want uncapped", s.PowerCap())
	}
	if s.Machine() == nil {
		t.Fatal("nil machine")
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(WithPowerCap(1)); err == nil {
		t.Error("infeasible cap accepted")
	}
	bad := *capped15(t).Machine()
	bad.IdlePower = -1
	if _, err := NewSystem(WithMachine(&bad)); err == nil {
		t.Error("broken machine accepted")
	}
}

func TestPrepareValidation(t *testing.T) {
	s := capped15(t)
	if _, err := s.Prepare(nil); err == nil {
		t.Error("empty batch accepted")
	}
	batch := Batch8()
	batch[2].ID = 7
	if _, err := s.Prepare(batch); err == nil {
		t.Error("misnumbered batch accepted")
	}
	if _, err := s.Prepare([]*Instance{nil}); err == nil {
		t.Error("nil instance accepted")
	}
}

func TestEndToEndQuickstart(t *testing.T) {
	s := capped15(t)
	w, err := s.Prepare(Batch8())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := w.ScheduleHCSPlus()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 || len(rep.Completions) != 8 {
		t.Fatalf("bad report: makespan %v, %d completions", rep.Makespan, len(rep.Completions))
	}
	if rep.AvgPower <= 0 || rep.Power.Len() == 0 {
		t.Error("power accounting missing")
	}
	// The planned schedule respects the cap up to reactive noise.
	if float64(rep.MaxExcess) > 2 {
		t.Errorf("cap exceeded by %v", rep.MaxExcess)
	}

	// Baselines are worse.
	_, rnd, err := w.RunPolicy("random", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rnd.Makespan <= rep.Makespan {
		t.Errorf("random (%v) should lose to HCS+ (%v)", rnd.Makespan, rep.Makespan)
	}
	_, def, err := w.RunPolicy("default", 0)
	if err != nil {
		t.Fatal(err)
	}
	if def.Makespan <= rep.Makespan {
		t.Errorf("default (%v) should lose to HCS+ (%v)", def.Makespan, rep.Makespan)
	}

	// The lower bound sits below everything.
	bound, err := w.LowerBound()
	if err != nil {
		t.Fatal(err)
	}
	if bound > rep.Makespan {
		t.Errorf("bound %v above HCS+ %v", bound, rep.Makespan)
	}

	// Predicted and executed makespans are of the same magnitude.
	pm, err := w.PredictedMakespan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(rep.Makespan) / float64(pm); ratio < 0.6 || ratio > 1.7 {
		t.Errorf("predicted %v vs executed %v diverge wildly", pm, rep.Makespan)
	}
}

func TestStandaloneTimeAccessor(t *testing.T) {
	s := capped15(t)
	w, err := s.Prepare(Batch8())
	if err != nil {
		t.Fatal(err)
	}
	tc, err := w.StandaloneTime(2, CPU) // dwt2d
	if err != nil {
		t.Fatal(err)
	}
	tg, err := w.StandaloneTime(2, GPU)
	if err != nil {
		t.Fatal(err)
	}
	if tc >= tg {
		t.Errorf("dwt2d CPU %v should beat GPU %v", tc, tg)
	}
}

func TestSubsetAndNames(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 8 {
		t.Fatalf("got %d names", len(names))
	}
	b, err := Subset("lud", "srad")
	if err != nil || len(b) != 2 {
		t.Fatalf("Subset failed: %v", err)
	}
	if _, err := Subset("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// The pipeline's conclusion — co-scheduling beats the baselines under
// a cap — holds on a different machine (the AMD-like preset), echoing
// the paper's "both Intel and AMD" observation.
func TestKaveriMachineEndToEnd(t *testing.T) {
	sys, err := NewSystem(WithMachine(KaveriMachine()), WithPowerCap(45))
	if err != nil {
		t.Fatal(err)
	}
	w, err := sys.Prepare(Batch8())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := w.ScheduleHCSPlus()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Completions) != 8 {
		t.Fatalf("%d completions", len(rep.Completions))
	}
	_, rnd, err := w.RunPolicy("random", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rnd.Makespan <= rep.Makespan {
		t.Errorf("on Kaveri: random %v should lose to HCS+ %v", rnd.Makespan, rep.Makespan)
	}
}

// A characterization saved from one system drives another without
// re-measuring, yielding identical schedules.
func TestCharacterizationPersistenceRoundTrip(t *testing.T) {
	orig := capped15(t)
	var buf bytes.Buffer
	if err := orig.SaveCharacterization(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := NewSystem(WithPowerCap(15), WithCharacterizationFrom(&buf))
	if err != nil {
		t.Fatal(err)
	}
	wA, err := orig.Prepare(Batch8())
	if err != nil {
		t.Fatal(err)
	}
	wB, err := loaded.Prepare(Batch8())
	if err != nil {
		t.Fatal(err)
	}
	pa, err := wA.ScheduleHCS()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := wB.ScheduleHCS()
	if err != nil {
		t.Fatal(err)
	}
	if pa.String() != pb.String() {
		t.Errorf("loaded characterization planned differently:\n%v\n%v", pa, pb)
	}
	// Corrupt input fails loudly.
	if _, err := NewSystem(WithCharacterizationFrom(bytes.NewBufferString("junk"))); err == nil {
		t.Error("junk characterization accepted")
	}
}

// Reports render as Gantt charts.
func TestReportWriteGantt(t *testing.T) {
	s := capped15(t)
	w, err := s.Prepare(Batch8())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := w.ScheduleHCS()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := rep.WriteGantt(&b, 60); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "CPU") || !strings.Contains(b.String(), "GPU") {
		t.Errorf("Gantt chart malformed:\n%s", b.String())
	}
}

func TestBatch16RoundTrip(t *testing.T) {
	s := capped15(t)
	w, err := s.Prepare(Batch16())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := w.ScheduleHCSPlus()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Completions) != 16 {
		t.Errorf("%d completions, want 16", len(rep.Completions))
	}
}

// Custom programs defined through the public API schedule end to end.
func TestCustomProgramSpec(t *testing.T) {
	mk := func(name string, id int, gpuEff float64, bpo float64) *Instance {
		in, err := NewInstance(ProgramSpec{
			Name: name, Work: 80,
			CPUEff: 0.6, GPUEff: gpuEff,
			CPUSens: 0.25, GPUSens: 0.1,
			Phases: []PhaseSpec{{Frac: 0.7, BytesPerOp: bpo}, {Frac: 0.3, BytesPerOp: 0.2}},
		}, id, 1)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	batch := []*Instance{
		mk("render", 0, 3.0, 1.8),
		mk("encode", 1, 2.2, 0.6),
		mk("analyze", 2, 0.9, 1.2), // CPU-leaning
	}
	s := capped15(t)
	w, err := s.Prepare(batch)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := w.ScheduleHCSPlus()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Completions) != 3 {
		t.Fatalf("%d completions", len(rep.Completions))
	}
	if rep.MaxExcess > 2 {
		t.Errorf("custom batch blew the cap by %v", rep.MaxExcess)
	}
}

func TestNewInstanceValidation(t *testing.T) {
	good := ProgramSpec{Name: "x", Work: 10, CPUEff: 1, GPUEff: 1,
		Phases: []PhaseSpec{{Frac: 1, BytesPerOp: 0.5}}}
	if _, err := NewInstance(good, 0, 0); err == nil {
		t.Error("zero scale accepted")
	}
	bad := good
	bad.Phases = []PhaseSpec{{Frac: 0.5, BytesPerOp: 0.5}}
	if _, err := NewInstance(bad, 0, 1); err == nil {
		t.Error("fractions not summing to 1 accepted")
	}
	bad = good
	bad.Work = 0
	if _, err := NewInstance(bad, 0, 1); err == nil {
		t.Error("zero work accepted")
	}
}
