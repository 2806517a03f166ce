package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"corun/internal/apu"
	"corun/internal/trace"
	"corun/internal/units"
	"corun/internal/workload"
)

// runGolden holds, per scenario, the digest of every Result field (see
// digestResult). The digests were recorded before the event loop reused
// a segment's rates and power between events, so they pin that the
// reuse returns exactly what recomputing returned.
var runGolden = map[string]string{
	"pkg15/hard=false/tmax=0/slots=1":      "3e448e828dab4b73",
	"pkg15/hard=false/tmax=0/slots=3":      "7bf1e7aaf568e1a0",
	"pkg15/hard=false/tmax=45/slots=1":     "51c022ad2fb66477",
	"pkg15/hard=false/tmax=45/slots=3":     "141ced454f98f40a",
	"pkg15/hard=true/tmax=0/slots=1":       "7b1ea2232ec258c8",
	"pkg15/hard=true/tmax=0/slots=3":       "3d85aae1b21fc7fa",
	"pkg15/hard=true/tmax=45/slots=1":      "c00831d62084b725",
	"pkg15/hard=true/tmax=45/slots=3":      "4f81090b9a26cbe6",
	"pp0/hard=false/tmax=0/slots=1":        "fa7a1f480c83a9ed",
	"pp0/hard=false/tmax=0/slots=3":        "b75f3f775d2ab8bd",
	"pp0/hard=false/tmax=45/slots=1":       "b03bf7396e814ac2",
	"pp0/hard=false/tmax=45/slots=3":       "948672aa789dcfdd",
	"pp0/hard=true/tmax=0/slots=1":         "b98486efe86eed9b",
	"pp0/hard=true/tmax=0/slots=3":         "13fb650767ed4958",
	"pp0/hard=true/tmax=45/slots=1":        "78126453821befe7",
	"pp0/hard=true/tmax=45/slots=3":        "b295290c65665bca",
	"pp1/hard=false/tmax=0/slots=1":        "d3f420fb73f6c6b0",
	"pp1/hard=false/tmax=0/slots=3":        "518d0f09dcdac116",
	"pp1/hard=false/tmax=45/slots=1":       "e20ded70b011846e",
	"pp1/hard=false/tmax=45/slots=3":       "cb73d902592a699d",
	"pp1/hard=true/tmax=0/slots=1":         "40dfed28e939b979",
	"pp1/hard=true/tmax=0/slots=3":         "615be6a83e4d16ac",
	"pp1/hard=true/tmax=45/slots=1":        "7ac1c576974d68e1",
	"pp1/hard=true/tmax=45/slots=3":        "7bf539a03d3d98d0",
	"uncapped/hard=false/tmax=0/slots=1":   "affa83ee2dda4843",
	"uncapped/hard=false/tmax=0/slots=3":   "63ab52cba0c0108d",
	"uncapped/hard=false/tmax=45/slots=1":  "45aa9be5b15ce9b2",
	"uncapped/hard=false/tmax=45/slots=3":  "07c0192d32fda823",
	"uncapped/hard=true/tmax=0/slots=1":    "affa83ee2dda4843",
	"uncapped/hard=true/tmax=0/slots=3":    "63ab52cba0c0108d",
	"uncapped/hard=true/tmax=45/slots=1":   "45aa9be5b15ce9b2",
	"uncapped/hard=true/tmax=45/slots=3":   "07c0192d32fda823",
	"pkg15+pp1/hard=false/tmax=0/slots=1":  "9e8d5c56e48c9b42",
	"pkg15+pp1/hard=false/tmax=0/slots=3":  "61453936f8830c2c",
	"pkg15+pp1/hard=false/tmax=45/slots=1": "cb086d126dfc9826",
	"pkg15+pp1/hard=false/tmax=45/slots=3": "c9b91dda8a7d3e7a",
	"pkg15+pp1/hard=true/tmax=0/slots=1":   "0edd52a2357790c1",
	"pkg15+pp1/hard=true/tmax=0/slots=3":   "713a75412650c4d6",
	"pkg15+pp1/hard=true/tmax=45/slots=1":  "0b575b9849fed32b",
	"pkg15+pp1/hard=true/tmax=45/slots=3":  "486c867bb43c9ac8",
	"stop/pkg15/tmax=45":                   "b3d2fd6181d26c4f",
}

// goldenScenario is one simulator configuration of TestRunGolden.
type goldenScenario struct {
	name     string
	pkgCap   units.Watts
	domains  apu.DomainCaps
	hardCap  bool
	tmax     float64 // 0: thermal model off
	cpuSlots int
	stop     bool // end when the batch's fifth instance completes
}

// goldenScenarios crosses every cap shape — a package cap, each plane
// alone, none, and a package cap with a plane cap under it — with
// hardware enforcement off and on, the thermal model off and throttling
// at 45 C, and one or three CPU slots; the last entry stops at one
// instance's completion.
func goldenScenarios() []goldenScenario {
	caps := []struct {
		name    string
		pkg     units.Watts
		domains apu.DomainCaps
	}{
		{"pkg15", 15, apu.DomainCaps{}},
		{"pp0", 0, apu.DomainCaps{PP0: 8}},
		{"pp1", 0, apu.DomainCaps{PP1: 9}},
		{"uncapped", 0, apu.DomainCaps{}},
		{"pkg15+pp1", 15, apu.DomainCaps{PP1: 7}},
	}
	var out []goldenScenario
	for _, c := range caps {
		for _, hard := range []bool{false, true} {
			for _, tmax := range []float64{0, 45} {
				for _, slots := range []int{1, 3} {
					out = append(out, goldenScenario{
						name:   fmt.Sprintf("%s/hard=%v/tmax=%v/slots=%d", c.name, hard, tmax, slots),
						pkgCap: c.pkg, domains: c.domains, hardCap: hard, tmax: tmax, cpuSlots: slots,
					})
				}
			}
		}
	}
	return append(out, goldenScenario{name: "stop/pkg15/tmax=45", pkgCap: 15, tmax: 45, cpuSlots: 1, stop: true})
}

// goldenSetup builds the scenario's options and queues: Batch16,
// alternate instances queued on the CPU and the GPU, under a GPU-biased
// governor enforcing the scenario's caps.
func goldenSetup(sc goldenScenario) (opts Options, cpuQ, gpuQ []*workload.Instance) {
	cfg := apu.DefaultConfig()
	tp := cfg.Thermal
	tp.TMaxC = sc.tmax
	cfg = cfg.WithThermal(tp)
	batch := workload.Batch16()
	for i, in := range batch {
		if i%2 == 0 {
			cpuQ = append(cpuQ, in)
		} else {
			gpuQ = append(gpuQ, in)
		}
	}
	opts = baseOpts()
	opts.Cfg = cfg
	opts.PowerCap, opts.DomainCaps, opts.HardCap = sc.pkgCap, sc.domains, sc.hardCap
	opts.CPUSlots = sc.cpuSlots
	opts.Governor = &BiasedGovernor{Cap: sc.pkgCap, Domains: sc.domains, Bias: GPUBiased}
	if sc.stop {
		opts.StopInstance = batch[4]
	}
	return opts, cpuQ, gpuQ
}

// traced is a run's Result beside the five per-sample series Result does
// not keep — both clocks, both plane powers and the heatsink temperature
// — rebuilt through run's probe at the Power samples' ticks from the
// values the event loop holds there.
type traced struct {
	*Result
	CPUFreq *trace.Series
	GPUFreq *trace.Series
	PP0     *trace.Series
	PP1     *trace.Series
	TempC   *trace.Series
}

// runTraced is Run with the five series recorded.
func runTraced(opts Options, disp Dispatcher) (*traced, error) {
	return traceRun(NewMachine(opts.Cfg), opts, disp, &probe{})
}

// traceRun is m's run under p with the five series recorded; it sets
// p's sample hook.
func traceRun(m *Machine, opts Options, disp Dispatcher, p *probe) (*traced, error) {
	tr := &traced{
		CPUFreq: trace.NewSeries("cpu_freq", "ghz"),
		GPUFreq: trace.NewSeries("gpu_freq", "ghz"),
		PP0:     trace.NewSeries("pp0_power", "w"),
		PP1:     trace.NewSeries("pp1_power", "w"),
		TempC:   trace.NewSeries("temp", "c"),
	}
	p.sample = func(m *Machine, avgPP0, avgPP1 float64) {
		cfg := m.opts.Cfg
		tr.CPUFreq.MustAdd(m.now, float64(cfg.Freq(apu.CPU, m.freq[apu.CPU])))
		tr.GPUFreq.MustAdd(m.now, float64(cfg.Freq(apu.GPU, m.freq[apu.GPU])))
		tr.PP0.MustAdd(m.now, avgPP0)
		tr.PP1.MustAdd(m.now, avgPP1)
		tr.TempC.MustAdd(m.now, m.heat.TempC)
	}
	res, err := m.run(opts, disp, p)
	if err != nil {
		return nil, err
	}
	tr.Result = res
	return tr, nil
}

// digestResult hashes every field of a Result and the series traced
// rebuilds, floats by their bits, and returns the first 16 hex digits.
func digestResult(res *traced) string {
	h := sha256.New()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	i := func(v int) { u(uint64(v)) }
	f(float64(res.Makespan))
	i(len(res.Completions))
	for _, c := range res.Completions {
		i(c.Inst.ID)
		i(int(c.Dev))
		f(float64(c.Start))
		f(float64(c.End))
	}
	for _, s := range []*trace.Series{res.Power, res.CPUFreq, res.GPUFreq, res.PP0, res.PP1, res.TempC} {
		i(s.Len())
		for k := 0; k < s.Len(); k++ {
			f(float64(s.At(k).Time))
			f(s.At(k).Value)
		}
	}
	f(res.EnergyJ)
	f(float64(res.AvgPower))
	f(float64(res.MaxSample))
	i(res.CapViolations)
	f(float64(res.MaxExcess))
	f(float64(res.AvgPP0))
	f(float64(res.AvgPP1))
	f(res.MaxTempC)
	i(res.Throttles)
	i(res.DomainViolations)
	i(int(res.Binding))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestRunGolden pins every output of the event loop — series, completions,
// energy, temperatures, violation counts and binding constraint — bit for
// bit across cap shapes, hardware clamps, thermal throttling and CPU
// multiprogramming.
func TestRunGolden(t *testing.T) {
	throttled := false
	for _, sc := range goldenScenarios() {
		opts, cpuQ, gpuQ := goldenSetup(sc)
		res, err := runTraced(opts, NewQueueDispatcher(cpuQ, gpuQ))
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		throttled = throttled || res.Throttles > 0
		if got := digestResult(res); got != runGolden[sc.name] {
			t.Errorf("%q: %q, want %q", sc.name, got, runGolden[sc.name])
		}
	}
	if !throttled {
		t.Error("no scenario throttled: the T_max 45 C runs no longer exercise the throttle")
	}
}
