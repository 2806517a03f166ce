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
	// queues holds each device's jobs not dispatched yet.
	queues [apu.NumDevices][]*workload.Instance
}

// NewQueueDispatcher builds a dispatcher over the queues. It reads
// them and never writes them.
func NewQueueDispatcher(cpu, gpu []*workload.Instance) *QueueDispatcher {
	return &QueueDispatcher{queues: [apu.NumDevices][]*workload.Instance{cpu, gpu}}
}

// Next implements Dispatcher.
func (q *QueueDispatcher) Next(dev apu.Device, view *View) *Dispatch {
	if !dev.Valid() || len(q.queues[dev]) == 0 {
		return nil
	}
	inst := q.queues[dev][0]
	q.queues[dev] = q.queues[dev][1:]
	return &Dispatch{Inst: inst, Freq: [apu.NumDevices]int{-1, -1}}
}

// repeatDispatcher runs a target instance once on its device while
// continuously re-launching a co-runner on the other device. Combined
// with Options.StopInstance it measures pairwise co-run degradation
// the way the paper does: the target runs start-to-finish under
// constant interference.
type repeatDispatcher struct {
	target    *workload.Instance
	targetDev apu.Device
	started   bool

	// co points at coCopy, or is nil for no co-runner. Every launch
	// runs the one copy: it is never the target, so its completions
	// cannot end the run even when the caller's co-runner is the
	// target itself.
	co     *workload.Instance
	coCopy workload.Instance

	// d is the Dispatch every Next returns; the simulator reads it
	// before asking again.
	d Dispatch
}

func newRepeatDispatcher(target *workload.Instance, targetDev apu.Device, co *workload.Instance) *repeatDispatcher {
	r := &repeatDispatcher{target: target, targetDev: targetDev, d: Dispatch{Freq: [apu.NumDevices]int{-1, -1}}}
	if co != nil {
		r.coCopy = *co
		r.co = &r.coCopy
	}
	return r
}

// Next implements Dispatcher.
func (r *repeatDispatcher) Next(dev apu.Device, view *View) *Dispatch {
	if dev == r.targetDev {
		if r.started {
			return nil
		}
		r.started = true
		r.d.Inst = r.target
		return &r.d
	}
	if r.co == nil {
		return nil
	}
	r.d.Inst = r.co
	return &r.d
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
	// SoloTime is the target's standalone wall time at the same
	// frequencies.
	SoloTime units.Seconds
	// Degradation is the target's wall time under interference over
	// SoloTime, minus 1 (>= 0 up to model noise).
	Degradation float64
	// AvgPower is the average co-run package power while the target ran.
	AvgPower units.Watts
}

// CoRun measures the degradation of target on targetDev while a copy
// of co runs back-to-back on the opposite device, with both devices
// pinned at the given frequency indices. A nil co measures a pure
// standalone run (degradation 0). It is SoloTime followed by
// CoRunWithSolo.
func CoRun(opts Options, target *workload.Instance, targetDev apu.Device, co *workload.Instance, cpuFreq, gpuFreq int) (*CoRunResult, error) {
	solo, err := SoloTime(opts, target, targetDev, cpuFreq, gpuFreq)
	if err != nil {
		return nil, err
	}
	out, err := CoRunWithSolo(opts, target, targetDev, co, cpuFreq, gpuFreq, solo)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// pinned returns opts with both devices pinned at the given frequency
// indices and no governor, as every pairwise measurement runs.
func pinned(opts Options, cpuFreq, gpuFreq int) Options {
	opts.InitFreq = [apu.NumDevices]FreqSetting{Pin(cpuFreq), Pin(gpuFreq)}
	opts.Governor = nil
	return opts
}

// SoloTime is CoRun's standalone half: target's wall time alone on
// targetDev with both devices pinned at the given frequency indices.
func SoloTime(opts Options, target *workload.Instance, targetDev apu.Device, cpuFreq, gpuFreq int) (units.Seconds, error) {
	solo, err := StandaloneRun(pinned(opts, cpuFreq, gpuFreq), target, targetDev)
	if err != nil {
		return 0, err
	}
	return solo.Makespan, nil
}

// CoRunWithSolo is CoRun's co-run half, for callers that measure one
// target against many co-runners: solo must be SoloTime of the same
// target, device and frequencies, and the result is then CoRun's.
func CoRunWithSolo(opts Options, target *workload.Instance, targetDev apu.Device, co *workload.Instance, cpuFreq, gpuFreq int, solo units.Seconds) (CoRunResult, error) {
	opts = pinned(opts, cpuFreq, gpuFreq)
	opts.StopInstance = target
	res, err := Run(opts, newRepeatDispatcher(target, targetDev, co))
	if err != nil {
		return CoRunResult{}, err
	}
	out := CoRunResult{SoloTime: solo, AvgPower: res.AvgPower}
	if solo > 0 {
		out.Degradation = float64(res.Makespan)/float64(solo) - 1
	}
	return out, nil
}
