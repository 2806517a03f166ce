// Package profile is the offline profiler: it produces each job's
// standalone execution time, average package power, achieved memory
// bandwidth, and utilization at every (device, frequency) operating
// point.
//
// The paper gathers the same tables by profiling real runs offline
// (section V.C notes that lightweight online estimators could replace
// this step in production). Here the profiler evaluates the analytic
// program models directly — the results are identical to running the
// event simulator standalone, which a test verifies.
package profile

import (
	"fmt"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/units"
	"corun/internal/workload"
)

// Entry is one operating point's standalone profile.
type Entry struct {
	Time      units.Seconds
	Power     units.Watts
	Bandwidth units.GBps
	Util      float64
}

// Standalone holds profiles for a batch of instances: Entries[i][d][f]
// is instance i on device d at frequency level f.
type Standalone struct {
	Cfg     *apu.Config
	Mem     *memsys.Model
	Batch   []*workload.Instance
	Entries [][][]Entry
}

// Collect profiles every instance of the batch at every operating
// point.
func Collect(cfg *apu.Config, mem *memsys.Model, batch []*workload.Instance) (*Standalone, error) {
	if cfg == nil || mem == nil {
		return nil, fmt.Errorf("profile: nil machine or memory model")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Standalone{Cfg: cfg, Mem: mem, Batch: batch}
	s.Entries = make([][][]Entry, len(batch))
	for i, inst := range batch {
		if inst == nil || inst.Prog == nil {
			return nil, fmt.Errorf("profile: batch entry %d is nil", i)
		}
		if err := inst.Prog.Validate(); err != nil {
			return nil, err
		}
		if err := units.CheckPositive("scale", inst.Scale); err != nil {
			return nil, fmt.Errorf("profile: %s: %w", inst.Label, err)
		}
		s.Entries[i] = make([][]Entry, apu.NumDevices)
		for d := apu.CPU; d <= apu.GPU; d++ {
			n := cfg.NumFreqs(d)
			s.Entries[i][d] = make([]Entry, n)
			for f := 0; f < n; f++ {
				s.Entries[i][d][f] = profileOne(cfg, mem, inst, d, f)
			}
		}
	}
	return s, nil
}

// profileOne evaluates one operating point analytically.
func profileOne(cfg *apu.Config, mem *memsys.Model, inst *workload.Instance, d apu.Device, f int) Entry {
	run := inst.Prog.Solo(d, cfg.Freq(d, f), mem, inst.Scale)
	return Entry{
		Time:      run.Time,
		Power:     standalonePower(cfg, d, f, run.Util),
		Bandwidth: run.Bandwidth,
		Util:      run.Util,
	}
}

// standalonePower composes the package power of a solo run: idle plus
// the active device's dynamic power at its utilization, plus the host
// thread when the GPU runs. A solo run leaves the opposite device at
// its floor frequency, so its contribution is zero (idle covers the
// uncore).
func standalonePower(cfg *apu.Config, d apu.Device, f int, util float64) units.Watts {
	if d == apu.CPU {
		return cfg.PackagePower(f, 0, util, -1, false)
	}
	// GPU job: CPU hosts at its floor frequency.
	return cfg.PackagePower(0, f, -1, util, true)
}

// NumJobs returns the batch size.
func (s *Standalone) NumJobs() int { return len(s.Batch) }

// At returns the profile entry of instance i on device d at level f.
func (s *Standalone) At(i int, d apu.Device, f int) Entry { return s.Entries[i][d][f] }

// Time is a convenience accessor for the standalone execution time.
func (s *Standalone) Time(i int, d apu.Device, f int) units.Seconds {
	return s.Entries[i][d][f].Time
}

// Power is a convenience accessor for the standalone package power.
func (s *Standalone) Power(i int, d apu.Device, f int) units.Watts {
	return s.Entries[i][d][f].Power
}

// Bandwidth is a convenience accessor for the achieved bandwidth.
func (s *Standalone) Bandwidth(i int, d apu.Device, f int) units.GBps {
	return s.Entries[i][d][f].Bandwidth
}
