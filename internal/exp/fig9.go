package exp

import (
	"fmt"
	"io"
	"math/rand"

	"corun/internal/apu"
	"corun/internal/sim"
	"corun/internal/trace"
	"corun/internal/units"
	"corun/internal/workload"
)

// Fig9Trace is one co-run pair's power trace.
type Fig9Trace struct {
	Label      string
	Trace      *trace.Series
	AvgPower   units.Watts
	Violations int
	MaxExcess  units.Watts
}

// Fig9Result reproduces Figure 9: 1 Hz power samples of four randomly
// selected co-run pairs under a 16 W cap.
type Fig9Result struct {
	Cap    units.Watts
	Traces []Fig9Trace
}

// Figure9 picks four seeded-random pairs (A on CPU, B on GPU), runs
// each co-run at its best cap-feasible frequency pair, and records the
// power samples.
func (s *Suite) Figure9() (*Fig9Result, error) {
	const cap = 16
	batch := workload.Batch8()
	cx, _, err := s.context(batch, cap)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(9)) // figure number as seed
	res := &Fig9Result{Cap: cap}
	for len(res.Traces) < 4 {
		i := rng.Intn(len(batch))
		j := rng.Intn(len(batch))
		if i == j {
			continue
		}
		fp, _, _, ok := cx.ChoosePairFreqs(i, j)
		if !ok {
			continue
		}
		target := &workload.Instance{ID: 0, Prog: batch[i].Prog, Scale: 1, Label: batch[i].Label}
		co := &workload.Instance{ID: 1, Prog: batch[j].Prog, Scale: 1, Label: batch[j].Label}

		opts := sim.Options{
			Cfg: s.Cfg, Mem: s.Mem, PowerCap: cap,
			InitFreq:     [apu.NumDevices]sim.FreqSetting{sim.Pin(fp.CPU), sim.Pin(fp.GPU)},
			StopInstance: target,
		}
		var cpuQ, gpuQ []*workload.Instance
		cpuQ = []*workload.Instance{target}
		gpuQ = []*workload.Instance{co}
		r, err := sim.Run(opts, sim.NewQueueDispatcher(cpuQ, gpuQ))
		if err != nil {
			return nil, err
		}
		res.Traces = append(res.Traces, Fig9Trace{
			Label:      fmt.Sprintf("%s-%s", batch[i].Label, batch[j].Label),
			Trace:      r.Power,
			AvgPower:   r.AvgPower,
			Violations: r.CapViolations,
			MaxExcess:  r.MaxExcess,
		})
	}
	return res, nil
}

// WriteText renders summary lines; WriteCSV renders the raw samples.
func (r *Fig9Result) WriteText(w io.Writer) error {
	for _, tr := range r.Traces {
		if _, err := fmt.Fprintf(w, "%-28s avg %5.2f W, %d/%d samples above %.0f W cap (max excess %.2f W)\n",
			tr.Label, float64(tr.AvgPower), tr.Violations, tr.Trace.Len(), float64(r.Cap), float64(tr.MaxExcess)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "[paper: below cap most of the time; excursions typically < 2 W]")
	return err
}

// WriteCSV renders all four traces against a shared time base.
func (r *Fig9Result) WriteCSV(w io.Writer) error {
	series := make([]*trace.Series, len(r.Traces))
	for i, tr := range r.Traces {
		s := trace.NewSeries(tr.Label, "w")
		for k := 0; k < tr.Trace.Len(); k++ {
			sm := tr.Trace.At(k)
			s.MustAdd(sm.Time, sm.Value)
		}
		series[i] = s
	}
	return trace.WriteMultiCSV(w, series...)
}
