package core

import (
	"math/rand"
	"sort"

	"corun/internal/apu"
	"corun/internal/sim"
	"corun/internal/workload"
)

// randomDispatcher implements the Random baseline (section VI-A):
// whenever a processor goes idle it picks a random remaining job — or
// occasionally leaves the processor idle until the other device's
// current job completes, since some jobs prefer running alone.
type randomDispatcher struct {
	rng       *rand.Rand
	remaining []int
	batch     []*workload.Instance

	// idleUntil[dev] records the co-runner the device decided to wait
	// out; the decision holds until that job changes.
	idleUntil [apu.NumDevices]*workload.Instance
	idleSet   [apu.NumDevices]bool
}

func newRandomDispatcher(batch []*workload.Instance, seed int64) *randomDispatcher {
	d := &randomDispatcher{rng: seededRand(seed), batch: batch}
	for i := range batch {
		d.remaining = append(d.remaining, i)
	}
	return d
}

// Next implements sim.Dispatcher.
func (d *randomDispatcher) Next(dev apu.Device, view *sim.View) *sim.Dispatch {
	if len(d.remaining) == 0 {
		return nil
	}
	other := view.Running[dev.Other()]

	// Honour a standing idle decision while the co-runner is unchanged.
	if d.idleSet[dev] {
		if other != nil && other == d.idleUntil[dev] {
			return nil
		}
		d.idleSet[dev] = false
	}

	// Idling is only an option when the other device is busy;
	// otherwise the machine would deadlock.
	options := len(d.remaining)
	if other != nil {
		options++
	}
	pick := d.rng.Intn(options)
	if pick == len(d.remaining) {
		d.idleSet[dev] = true
		d.idleUntil[dev] = other
		return nil
	}
	j := d.remaining[pick]
	d.remaining = append(d.remaining[:pick], d.remaining[pick+1:]...)
	return &sim.Dispatch{Inst: d.batch[j], CPUFreq: -1, GPUFreq: -1}
}

// ExecuteRandom runs the Random baseline once with the given seed. The
// power cap is enforced by the GPU-biased reactive governor, the
// paper's comparison setting.
func ExecuteRandom(opts ExecOptions, batch []*workload.Instance, seed int64) (*sim.Result, error) {
	d := newRandomDispatcher(batch, seed)
	defer putRand(d.rng)
	return opts.simulate(sim.Options{Governor: opts.biasedGovernor(sim.GPUBiased)}, d)
}

// RandomPlan builds the planned-schedule form of the Random baseline:
// each job lands on a random device in random order, with no exclusive
// marks. Unlike ExecuteRandom — the paper's dispatcher-driven baseline,
// which re-rolls at every idle processor — this is a plain Schedule, so
// it can flow through the same predicted-makespan evaluation and
// execution paths as every planned policy.
func RandomPlan(n int, seed int64) *Schedule {
	rng := seededRand(seed)
	defer putRand(rng)
	return randomSchedule(n, rng)
}

// DefaultPartition reproduces the Default baseline's job placement:
// rank programs by the ratio of standalone CPU time to GPU time at the
// highest frequency, give the most GPU-leaning prefix to the GPU, and
// choose the split that minimizes the larger partition's total
// execution time.
func DefaultPartition(o Oracle, cfg *apu.Config) (cpuJobs, gpuJobs []int) {
	n := o.NumJobs()
	cmax := cfg.MaxFreqIndex(apu.CPU)
	gmax := cfg.MaxFreqIndex(apu.GPU)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	ratio := func(i int) float64 {
		return float64(o.StandaloneTime(i, apu.CPU, cmax)) / float64(o.StandaloneTime(i, apu.GPU, gmax))
	}
	sort.SliceStable(order, func(a, b int) bool { return ratio(order[a]) > ratio(order[b]) })

	bestK, bestMax := 0, -1.0
	for k := 0; k <= n; k++ {
		sumG, sumC := 0.0, 0.0
		for _, j := range order[:k] {
			sumG += float64(o.StandaloneTime(j, apu.GPU, gmax))
		}
		for _, j := range order[k:] {
			sumC += float64(o.StandaloneTime(j, apu.CPU, cmax))
		}
		m := sumG
		if sumC > m {
			m = sumC
		}
		if bestMax < 0 || m < bestMax {
			bestK, bestMax = k, m
		}
	}
	gpuJobs = append([]int(nil), order[:bestK]...)
	cpuJobs = append([]int(nil), order[bestK:]...)
	return cpuJobs, gpuJobs
}

// ExecuteDefault runs the Default baseline: the GPU partition executes
// sequentially while the whole CPU partition is launched at once and
// time-shares the cores under the OS scheduler, exactly the behaviour
// the paper attributes to the Linux default schedule. The biased
// reactive governor enforces the cap.
func ExecuteDefault(opts ExecOptions, batch []*workload.Instance, o Oracle, bias sim.Bias) (*sim.Result, error) {
	cpuJobs, gpuJobs := DefaultPartition(o, opts.Cfg)
	var cpuQ, gpuQ []*workload.Instance
	for _, j := range cpuJobs {
		cpuQ = append(cpuQ, batch[j])
	}
	for _, j := range gpuJobs {
		gpuQ = append(gpuQ, batch[j])
	}
	return opts.simulate(sim.Options{CPUSlots: max(1, len(cpuQ)), Governor: opts.biasedGovernor(bias)},
		sim.NewQueueDispatcher(cpuQ, gpuQ))
}
