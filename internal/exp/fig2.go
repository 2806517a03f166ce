package exp

import (
	"fmt"
	"io"
	"sort"

	"corun/internal/apu"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// Fig2Row is one program's standalone CPU-vs-GPU comparison.
type Fig2Row struct {
	Name    string
	CPUTime units.Seconds
	GPUTime units.Seconds
	// SpeedupOnPreferred is how much faster the preferred device is.
	SpeedupOnPreferred float64
	PrefersGPU         bool
}

// Fig2Result reproduces Figure 2: the standalone performance of
// streamcluster, cfd, dwt2d, and hotspot on each device.
type Fig2Result struct {
	Rows []Fig2Row
}

// Figure2 measures the four motivating programs standalone on both
// devices at maximum frequency (no cap), on the ground-truth simulator.
func (s *Suite) Figure2() (*Fig2Result, error) {
	batch, err := workload.Subset("streamcluster", "cfd", "dwt2d", "hotspot")
	if err != nil {
		return nil, err
	}
	res := &Fig2Result{}
	for _, inst := range batch {
		cpu, err := sim.StandaloneRun(sim.Options{Cfg: s.Cfg, Mem: s.Mem}, inst, apu.CPU)
		if err != nil {
			return nil, err
		}
		gpu, err := sim.StandaloneRun(sim.Options{Cfg: s.Cfg, Mem: s.Mem}, inst, apu.GPU)
		if err != nil {
			return nil, err
		}
		row := Fig2Row{Name: inst.Label, CPUTime: cpu.Makespan, GPUTime: gpu.Makespan}
		if row.GPUTime < row.CPUTime {
			row.PrefersGPU = true
			row.SpeedupOnPreferred = float64(row.CPUTime) / float64(row.GPUTime)
		} else {
			row.SpeedupOnPreferred = float64(row.GPUTime) / float64(row.CPUTime)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteText renders the comparison.
func (r *Fig2Result) WriteText(w io.Writer) error {
	for _, row := range r.Rows {
		dev := "CPU"
		if row.PrefersGPU {
			dev = "GPU"
		}
		if _, err := fmt.Fprintf(w, "%-14s CPU %7.2fs  GPU %7.2fs  prefers %s (%.1fx)\n",
			row.Name, float64(row.CPUTime), float64(row.GPUTime), dev, row.SpeedupOnPreferred); err != nil {
			return err
		}
	}
	return nil
}

// Example3Result reproduces the section III motivating example.
type Example3Result struct {
	// Heavy and Mild are the dwt2d-side slowdowns beside streamcluster
	// and hotspot; HeavyCo and MildCo the GPU co-runners' slowdowns.
	Heavy, HeavyCo float64
	Mild, MildCo   float64

	// BestMakespan and WorstMakespan bound the enumerated co-schedules
	// of the four programs under the 15 W cap; Ratio = worst/best.
	BestMakespan  units.Seconds
	WorstMakespan units.Seconds
	Ratio         float64

	// NumSchedules is how many (schedule, frequency) configurations
	// were enumerated.
	NumSchedules int
}

// Example3 measures the pairwise anecdotes and enumerates every
// ordered CPU/GPU split of the four motivating programs under a 15 W
// cap, at a coarse grid of cap-feasible fixed frequency pairs, to
// reproduce the "optimal setting is 2.3X better than the worst
// co-schedule" observation.
func (s *Suite) Example3() (*Example3Result, error) {
	cmax, gmax := s.maxFreqs()
	mk := func(name string) *workload.Instance {
		return &workload.Instance{Prog: workload.MustByName(name), Scale: 1, Label: name}
	}
	opts := sim.Options{Cfg: s.Cfg, Mem: s.Mem}

	res := &Example3Result{}
	heavy, err := sim.CoRun(opts, mk("dwt2d"), apu.CPU, mk("streamcluster"), cmax, gmax)
	if err != nil {
		return nil, err
	}
	res.Heavy = heavy.Degradation
	hc, err := sim.CoRun(opts, mk("streamcluster"), apu.GPU, mk("dwt2d"), cmax, gmax)
	if err != nil {
		return nil, err
	}
	res.HeavyCo = hc.Degradation
	mild, err := sim.CoRun(opts, mk("dwt2d"), apu.CPU, mk("hotspot"), cmax, gmax)
	if err != nil {
		return nil, err
	}
	res.Mild = mild.Degradation
	mc, err := sim.CoRun(opts, mk("hotspot"), apu.GPU, mk("dwt2d"), cmax, gmax)
	if err != nil {
		return nil, err
	}
	res.MildCo = mc.Degradation

	// Enumerate schedules x frequency settings under a 15 W cap.
	const cap = 15
	names := []string{"streamcluster", "cfd", "dwt2d", "hotspot"}
	freqPairs := s.capFeasibleGrid(cap)
	best, worst := -1.0, -1.0
	for _, split := range allSplits(len(names)) {
		for _, fp := range freqPairs {
			batch := make([]*workload.Instance, len(names))
			for i, n := range names {
				batch[i] = &workload.Instance{ID: i, Prog: workload.MustByName(n), Scale: 1, Label: n}
			}
			var cpuQ, gpuQ []*workload.Instance
			for _, i := range split.cpu {
				cpuQ = append(cpuQ, batch[i])
			}
			for _, i := range split.gpu {
				gpuQ = append(gpuQ, batch[i])
			}
			simOpts := sim.Options{
				Cfg: s.Cfg, Mem: s.Mem, PowerCap: cap,
				InitFreq: [apu.NumDevices]sim.FreqSetting{sim.Pin(fp[0]), sim.Pin(fp[1])},
			}
			r, err := sim.Run(simOpts, sim.NewQueueDispatcher(cpuQ, gpuQ))
			if err != nil {
				return nil, err
			}
			m := float64(r.Makespan)
			if best < 0 || m < best {
				best = m
			}
			if m > worst {
				worst = m
			}
			res.NumSchedules++
		}
	}
	res.BestMakespan = units.Seconds(best)
	res.WorstMakespan = units.Seconds(worst)
	if best > 0 {
		res.Ratio = worst / best
	}
	return res, nil
}

// capFeasibleGrid returns a coarse grid of fixed frequency pairs whose
// full-load package power fits the cap.
func (s *Suite) capFeasibleGrid(cap units.Watts) [][2]int {
	var out [][2]int
	for fc := s.Cfg.MaxFreqIndex(apu.CPU); fc >= 0; fc -= 3 {
		for fg := s.Cfg.MaxFreqIndex(apu.GPU); fg >= 0; fg -= 2 {
			if s.Cfg.PackagePower(fc, fg, 1, 1, true) <= cap {
				out = append(out, [2]int{fc, fg})
			}
		}
	}
	return out
}

// qsplit is one assignment of job indices to ordered device queues.
type qsplit struct {
	cpu []int
	gpu []int
}

// allSplits enumerates every (ordered CPU queue, ordered GPU queue)
// partition of n jobs.
func allSplits(n int) []qsplit {
	jobs := make([]int, n)
	for i := range jobs {
		jobs[i] = i
	}
	var out []qsplit
	// Choose a subset for the CPU, then order both sides.
	for mask := 0; mask < 1<<n; mask++ {
		var cpu, gpu []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				cpu = append(cpu, jobs[i])
			} else {
				gpu = append(gpu, jobs[i])
			}
		}
		for _, cp := range permutations(cpu) {
			for _, gp := range permutations(gpu) {
				out = append(out, qsplit{cpu: cp, gpu: gp})
			}
		}
	}
	return out
}

// permutations returns all orderings of xs (including the empty one).
func permutations(xs []int) [][]int {
	if len(xs) == 0 {
		return [][]int{nil}
	}
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	var out [][]int
	var rec func(cur []int, rest []int)
	rec = func(cur, rest []int) {
		if len(rest) == 0 {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := range rest {
			next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			rec(append(cur, rest[i]), next)
		}
	}
	rec(nil, sorted)
	return out
}

// WriteText renders the example.
func (r *Example3Result) WriteText(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"dwt2d beside streamcluster: %s (streamcluster: %s)   [paper: +81%% / +5%%]\n"+
			"dwt2d beside hotspot:       %s (hotspot: %s)   [paper: +17%% / +5%%]\n"+
			"4-program enumeration under 15 W: %d configurations, best %.1fs, worst %.1fs, ratio %.2fx [paper: 2.3x]\n",
		pct(r.Heavy), pct(r.HeavyCo), pct(r.Mild), pct(r.MildCo),
		r.NumSchedules, float64(r.BestMakespan), float64(r.WorstMakespan), r.Ratio)
	return err
}
