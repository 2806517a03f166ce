package sim

import (
	"corun/internal/apu"
	"corun/internal/units"
	"corun/internal/workload"
)

// QueueDispatcher feeds two fixed job sequences to the devices, in
// order, leaving frequencies to the governor. It is how planned
// co-schedules (HCS, HCS+, Default's GPU side) execute.
type QueueDispatcher struct {
	CPUQueue []*workload.Instance
	GPUQueue []*workload.Instance

	cpuNext, gpuNext int
}

// NewQueueDispatcher builds a dispatcher over copies of the queues.
func NewQueueDispatcher(cpu, gpu []*workload.Instance) *QueueDispatcher {
	return &QueueDispatcher{
		CPUQueue: append([]*workload.Instance(nil), cpu...),
		GPUQueue: append([]*workload.Instance(nil), gpu...),
	}
}

// Next implements Dispatcher.
func (q *QueueDispatcher) Next(dev apu.Device, view *View) *Dispatch {
	var inst *workload.Instance
	switch dev {
	case apu.CPU:
		if q.cpuNext >= len(q.CPUQueue) {
			return nil
		}
		inst = q.CPUQueue[q.cpuNext]
		q.cpuNext++
	case apu.GPU:
		if q.gpuNext >= len(q.GPUQueue) {
			return nil
		}
		inst = q.GPUQueue[q.gpuNext]
		q.gpuNext++
	default:
		return nil
	}
	return &Dispatch{Inst: inst, CPUFreq: -1, GPUFreq: -1}
}

// repeatDispatcher runs a target instance once on its device while
// continuously re-launching copies of a co-runner on the other device.
// Combined with Options.StopInstance it measures pairwise co-run
// degradation the way the paper does: the target runs start-to-finish
// under constant interference.
type repeatDispatcher struct {
	target    *workload.Instance
	targetDev apu.Device
	co        *workload.Instance
	started   bool
	coCount   int
}

// Next implements Dispatcher.
func (r *repeatDispatcher) Next(dev apu.Device, view *View) *Dispatch {
	if dev == r.targetDev {
		if r.started {
			return nil
		}
		r.started = true
		return &Dispatch{Inst: r.target, CPUFreq: -1, GPUFreq: -1}
	}
	if r.co == nil {
		return nil
	}
	// Fresh copy so completions are distinguishable.
	r.coCount++
	clone := *r.co
	return &Dispatch{Inst: &clone, CPUFreq: -1, GPUFreq: -1}
}

// StandaloneRun simulates a single instance alone on the given device
// at fixed frequencies and returns the full Result. The opposite
// device idles throughout.
func StandaloneRun(opts Options, inst *workload.Instance, dev apu.Device) (*Result, error) {
	opts.StopInstance = inst
	var cpu, gpu []*workload.Instance
	if dev == apu.CPU {
		cpu = []*workload.Instance{inst}
	} else {
		gpu = []*workload.Instance{inst}
	}
	return Run(opts, NewQueueDispatcher(cpu, gpu))
}

// CoRunResult captures one pairwise degradation measurement.
type CoRunResult struct {
	// TargetTime is the target's wall time under interference.
	TargetTime units.Seconds
	// SoloTime is the target's standalone wall time at the same
	// frequencies.
	SoloTime units.Seconds
	// Degradation is TargetTime/SoloTime - 1 (>= 0 up to model noise).
	Degradation float64
	// AvgPower is the average co-run package power while the target ran.
	AvgPower units.Watts
}

// CoRun measures the degradation of target on targetDev while copies
// of co run back-to-back on the opposite device, with both devices
// pinned at the given frequency indices. A nil co measures a pure
// standalone run (degradation 0).
func CoRun(opts Options, target *workload.Instance, targetDev apu.Device, co *workload.Instance, cpuFreq, gpuFreq int) (*CoRunResult, error) {
	opts.InitCPUFreq = Pin(cpuFreq)
	opts.InitGPUFreq = Pin(gpuFreq)
	opts.Governor = nil

	soloOpts := opts
	solo, err := StandaloneRun(soloOpts, target, targetDev)
	if err != nil {
		return nil, err
	}

	opts.StopInstance = target
	disp := &repeatDispatcher{target: target, targetDev: targetDev, co: co}
	res, err := Run(opts, disp)
	if err != nil {
		return nil, err
	}
	out := &CoRunResult{
		TargetTime: res.Makespan,
		SoloTime:   solo.Makespan,
		AvgPower:   res.AvgPower,
	}
	if solo.Makespan > 0 {
		out.Degradation = float64(res.Makespan)/float64(solo.Makespan) - 1
	}
	return out, nil
}
