package corun

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/profile"
	"corun/internal/workload"
)

// Error paths and accessors of the public facade.

func TestScheduleErrorsOnInfeasibleCapAtPlanTime(t *testing.T) {
	// A cap just above the minimum co-run power makes solo CPU runs
	// borderline; build a legit system but hand Run a foreign schedule.
	s := capped15(t)
	w8, err := s.Prepare(Batch8())
	if err != nil {
		t.Fatal(err)
	}
	w16, err := s.Prepare(Batch16())
	if err != nil {
		t.Fatal(err)
	}
	plan16, err := w16.ScheduleHCS()
	if err != nil {
		t.Fatal(err)
	}
	// A 16-job schedule cannot run against an 8-job workload.
	if _, err := w8.Run(plan16); err == nil {
		t.Error("mismatched schedule accepted by Run")
	}
	if _, err := w8.PredictedMakespan(plan16); err == nil {
		t.Error("mismatched schedule accepted by PredictedMakespan")
	}
}

func TestPairDegradationIndexValidation(t *testing.T) {
	s := capped15(t)
	w, err := s.Prepare(Batch8())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.PredictPairDegradation(-1, 0); err == nil {
		t.Error("negative index accepted")
	}
	if _, _, err := w.PredictPairDegradation(0, 99); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, _, err := w.MeasurePairDegradation(99, 0); err == nil {
		t.Error("out-of-range index accepted by measure")
	}
	// And a valid pair round-trips: prediction and measurement agree in
	// sign and rough magnitude for a well-modelled pair.
	p, _, err := w.PredictPairDegradation(5, 0) // lud beside streamcluster
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := w.MeasurePairDegradation(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || m <= 0 {
		t.Errorf("degradations should be positive: predicted %v measured %v", p, m)
	}
}

func TestStandaloneTimeIndexValidation(t *testing.T) {
	s := capped15(t)
	w, err := s.Prepare(Batch8())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.StandaloneTime(99, CPU); err == nil {
		t.Error("out-of-range job accepted")
	}
}

func TestBatchAccessor(t *testing.T) {
	s := capped15(t)
	batch := Batch8()
	w, err := s.Prepare(batch)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Batch(); len(got) != 8 || got[0] != batch[0] {
		t.Error("Batch accessor broken")
	}
}

func TestArrivalOfValidation(t *testing.T) {
	if _, err := ArrivalOf("nope", 0, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	a, err := ArrivalOf("srad", 12.5, 1.1)
	if err != nil || a.At != 12.5 || a.Scale != 1.1 || a.Prog == nil {
		t.Errorf("ArrivalOf broken: %+v %v", a, err)
	}
}

// Every entry point that takes a caller's number refuses NaN, ±Inf and
// the out-of-range values with an error that names the field: a bare
// sign test lets NaN through, and a non-finite scale or arrival time
// only failed deep inside the planner. Non-negative fields accept 0,
// and an arrival time may be any finite number.
func TestEntryPointsRejectNonFinite(t *testing.T) {
	sys := capped15(t)
	spec := ProgramSpec{Name: "x", Work: 10, CPUEff: 1, GPUEff: 1,
		Phases: []PhaseSpec{{Frac: 1, BytesPerOp: 0.5}}}
	cfd := workload.MustByName("cfd")
	entries := []struct {
		name, field string
		zeroOK      bool // non-negative rather than positive
		finiteOK    bool // any finite value is valid
		call        func(v float64) error
	}{
		{"NewInstance scale", "scale", false, false, func(v float64) error {
			_, err := NewInstance(spec, 0, v)
			return err
		}},
		{"ProgramSpec.Work", "Work", false, false, func(v float64) error {
			s := spec
			s.Work = v
			_, err := NewInstance(s, 0, 1)
			return err
		}},
		{"ProgramSpec.CPUEff", "CPUEff", false, false, func(v float64) error {
			s := spec
			s.CPUEff = v
			_, err := NewInstance(s, 0, 1)
			return err
		}},
		{"ProgramSpec.GPUEff", "GPUEff", false, false, func(v float64) error {
			s := spec
			s.GPUEff = v
			_, err := NewInstance(s, 0, 1)
			return err
		}},
		{"ProgramSpec.CPUSens", "CPUSens", true, false, func(v float64) error {
			s := spec
			s.CPUSens = v
			_, err := NewInstance(s, 0, 1)
			return err
		}},
		{"ProgramSpec.GPUSens", "GPUSens", true, false, func(v float64) error {
			s := spec
			s.GPUSens = v
			_, err := NewInstance(s, 0, 1)
			return err
		}},
		{"PhaseSpec.Frac", "Frac", false, false, func(v float64) error {
			s := spec
			s.Phases = []PhaseSpec{{Frac: v, BytesPerOp: 0.5}}
			_, err := NewInstance(s, 0, 1)
			return err
		}},
		{"PhaseSpec.BytesPerOp", "BytesPerOp", true, false, func(v float64) error {
			s := spec
			s.Phases = []PhaseSpec{{Frac: 1, BytesPerOp: v}}
			_, err := NewInstance(s, 0, 1)
			return err
		}},
		{"ArrivalOf scale", "Scale", false, false, func(v float64) error {
			_, err := ArrivalOf("cfd", 0, v)
			return err
		}},
		{"ArrivalOf at", "At", false, true, func(v float64) error {
			_, err := ArrivalOf("cfd", v, 1)
			return err
		}},
		{"Serve Arrival.Scale", "Scale", false, false, func(v float64) error {
			_, err := sys.Serve([]Arrival{{Prog: cfd, Scale: v, Label: "cfd"}}, ServeHCSPlus, 1)
			return err
		}},
		{"Serve Arrival.At", "At", false, true, func(v float64) error {
			_, err := sys.Serve([]Arrival{{At: Seconds(v), Prog: cfd, Scale: 1, Label: "cfd"}}, ServeHCSPlus, 1)
			return err
		}},
		{"profile.Collect scale", "scale", false, false, func(v float64) error {
			batch := []*workload.Instance{{Prog: cfd, Scale: v, Label: "cfd"}}
			_, err := profile.Collect(apu.DefaultConfig(), memsys.Default(), batch)
			return err
		}},
		{"JobSpec.Scale", "scale", false, false, func(v float64) error {
			return workload.JobSpec{Program: "cfd", Scale: v, Tenant: "default", Priority: "normal"}.Validate()
		}},
		{"JobSpec.DeadlineS", "deadline", true, false, func(v float64) error {
			return workload.JobSpec{Program: "cfd", Scale: 1, DeadlineS: v, Tenant: "default", Priority: "normal"}.Validate()
		}},
	}
	for _, e := range entries {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
			finite := !math.IsNaN(v) && !math.IsInf(v, 0)
			err := e.call(v)
			if e.finiteOK && finite || e.zeroOK && v == 0 {
				if err != nil {
					t.Errorf("%s = %v refused: %v", e.name, v, err)
				}
				continue
			}
			if err == nil {
				t.Errorf("%s = %v accepted", e.name, v)
			} else if !strings.Contains(err.Error(), " "+e.field+" ") {
				t.Errorf("%s = %v: error %q does not name %s", e.name, v, err, e.field)
			}
		}
	}
}

func TestGenerateArrivalsFacade(t *testing.T) {
	as, err := GenerateArrivals(5, 10, 2)
	if err != nil || len(as) != 5 {
		t.Fatalf("GenerateArrivals: %v %d", err, len(as))
	}
	if _, err := GenerateArrivals(0, 10, 2); err == nil {
		t.Error("zero arrivals accepted")
	}
}

func TestSaveCharacterizationRejectsNilWriterTarget(t *testing.T) {
	s := capped15(t)
	var buf bytes.Buffer
	if err := s.SaveCharacterization(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("nothing written")
	}
}

func TestMachinePresets(t *testing.T) {
	if DefaultMachine() == nil || KaveriMachine() == nil {
		t.Fatal("nil presets")
	}
	if DefaultMachine().TDP == KaveriMachine().TDP {
		t.Error("presets suspiciously identical")
	}
}

// Online calibration plugs into the pipeline and does not hurt the
// scheduled outcome.
func TestPrepareCalibrated(t *testing.T) {
	s := capped15(t)
	batch := Batch8()
	plain, err := s.Prepare(batch)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := s.PrepareCalibrated(batch)
	if err != nil {
		t.Fatal(err)
	}
	planPlain, err := plain.ScheduleHCSPlus()
	if err != nil {
		t.Fatal(err)
	}
	planCal, err := cal.ScheduleHCSPlus()
	if err != nil {
		t.Fatal(err)
	}
	repPlain, err := plain.Run(planPlain)
	if err != nil {
		t.Fatal(err)
	}
	repCal, err := cal.Run(planCal)
	if err != nil {
		t.Fatal(err)
	}
	if float64(repCal.Makespan) > float64(repPlain.Makespan)*1.10 {
		t.Errorf("calibrated model scheduled clearly worse: %v vs %v",
			repCal.Makespan, repPlain.Makespan)
	}
}
