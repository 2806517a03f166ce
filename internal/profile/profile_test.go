package profile

import (
	"testing"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

func collect(t *testing.T, batch []*workload.Instance) *Standalone {
	t.Helper()
	s, err := Collect(apu.DefaultConfig(), memsys.Default(), batch)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCollectShapes(t *testing.T) {
	s := collect(t, workload.Batch8())
	if s.NumJobs() != 8 {
		t.Fatalf("NumJobs = %d", s.NumJobs())
	}
	if len(s.Entries[0][apu.CPU]) != 16 || len(s.Entries[0][apu.GPU]) != 10 {
		t.Error("frequency dimensions wrong")
	}
}

func TestCollectRejectsBadInput(t *testing.T) {
	cfg, mem := apu.DefaultConfig(), memsys.Default()
	if _, err := Collect(nil, mem, nil); err == nil {
		t.Error("nil config accepted")
	}
	if _, err := Collect(cfg, nil, nil); err == nil {
		t.Error("nil memory model accepted")
	}
	if _, err := Collect(cfg, mem, []*workload.Instance{nil}); err == nil {
		t.Error("nil instance accepted")
	}
	bad := workload.Batch8()[:1]
	bad[0].Scale = 0
	if _, err := Collect(cfg, mem, bad); err == nil {
		t.Error("zero scale accepted")
	}
}

// The analytic profile must agree with actually simulating the
// standalone run, both in time and in average power.
func TestProfileMatchesSimulation(t *testing.T) {
	batch := workload.Batch8()
	s := collect(t, batch)
	opts := sim.Options{Cfg: s.Cfg, Mem: s.Mem}
	cases := []struct {
		i int
		d apu.Device
		f int
	}{
		{0, apu.GPU, 9},  // streamcluster GPU max
		{2, apu.CPU, 15}, // dwt2d CPU max
		{3, apu.GPU, 4},  // hotspot GPU mid
		{5, apu.CPU, 6},  // lud CPU mid
	}
	for _, c := range cases {
		o := opts
		o.InitFreq = [apu.NumDevices]sim.FreqSetting{sim.Pin(0), sim.Pin(0)}
		o.InitFreq[c.d] = sim.Pin(c.f)
		res, err := sim.StandaloneRun(o, batch[c.i], c.d)
		if err != nil {
			t.Fatal(err)
		}
		e := s.At(c.i, c.d, c.f)
		if units.RelErr(float64(res.Makespan), float64(e.Time)) > 1e-6 {
			t.Errorf("%s on %v@%d: time sim %v vs profile %v",
				batch[c.i].Label, c.d, c.f, res.Makespan, e.Time)
		}
		if units.RelErr(float64(res.AvgPower), float64(e.Power)) > 0.02 {
			t.Errorf("%s on %v@%d: power sim %v vs profile %v",
				batch[c.i].Label, c.d, c.f, res.AvgPower, e.Power)
		}
	}
}

func TestTimesDecreaseWithFrequency(t *testing.T) {
	s := collect(t, workload.Batch8())
	for i := 0; i < s.NumJobs(); i++ {
		for d := apu.CPU; d <= apu.GPU; d++ {
			for f := 1; f < s.Cfg.NumFreqs(d); f++ {
				if s.Time(i, d, f) > s.Time(i, d, f-1)+1e-9 {
					t.Errorf("%s on %v: time rose from level %d to %d",
						s.Batch[i].Label, d, f-1, f)
				}
			}
		}
	}
}

func TestPowersIncreaseWithFrequency(t *testing.T) {
	s := collect(t, workload.Batch8())
	for i := 0; i < s.NumJobs(); i++ {
		for d := apu.CPU; d <= apu.GPU; d++ {
			for f := 1; f < s.Cfg.NumFreqs(d); f++ {
				if s.Power(i, d, f) < s.Power(i, d, f-1)-1e-9 {
					t.Errorf("%s on %v: power fell from level %d to %d",
						s.Batch[i].Label, d, f-1, f)
				}
			}
		}
	}
}

// GPU-preferred programs must remain GPU-preferred under a 15 W cap —
// the preference categorization the scheduler relies on. Each device
// runs at its highest level whose standalone power fits the cap.
func TestPreferencesStableUnderCap(t *testing.T) {
	s := collect(t, workload.Batch8())
	for _, c := range []struct {
		job  int
		name string
		want apu.Device
	}{{0, "streamcluster", apu.GPU}, {2, "dwt2d", apu.CPU}} {
		var best [apu.NumDevices]units.Seconds
		for d := apu.CPU; d <= apu.GPU; d++ {
			f := s.Cfg.MaxFreqIndex(d)
			for f >= 0 && s.Power(c.job, d, f) > 15 {
				f--
			}
			if f < 0 {
				t.Fatalf("%s has no 15 W operating point on %v", c.name, d)
			}
			best[d] = s.Entries[c.job][d][f].Time
		}
		other := apu.CPU + apu.GPU - c.want
		if best[c.want] >= best[other] {
			t.Errorf("%s under 15 W: %v on %v, %v on %v; want %v faster", c.name, best[c.want], c.want, best[other], other, c.want)
		}
	}
}
