package server

import (
	"context"
	"errors"
	"time"

	"corun/internal/admission"
	"corun/internal/apu"
	"corun/internal/core"
	"corun/internal/journal"
	"corun/internal/online"
	"corun/internal/sim"
	"corun/internal/trace"
	"corun/internal/units"
	"corun/internal/workload"
)

// This file is everything the scheduler goroutine runs: the loop, the
// epoch step around online.Node.Run, the views and snapshots it
// publishes, the terminal records it journals, and the trace and
// gauges it keeps.

// maxTraceEpochs bounds the epoch trace GET /v1/trace serves: a daemon
// appends to it every epoch for the life of the process, so it keeps
// the most recent epochs only.
const maxTraceEpochs = 4096

// PlanView is the JSON form of one epoch's schedule, served by
// GET /v1/plan. Orders reference job IDs. A stored PlanView is
// immutable — each update publishes a copy of the stored view with its
// own changes made, sharing the slices it leaves alone.
type PlanView struct {
	Epoch  int      `json:"epoch"`
	Policy string   `json:"policy"`
	State  string   `json:"state"` // planning | running | done | failed
	Jobs   []string `json:"jobs"`

	CPUOrder  []string `json:"cpu_order,omitempty"`
	GPUOrder  []string `json:"gpu_order,omitempty"`
	Exclusive []string `json:"exclusive,omitempty"`

	PredictedMakespanS float64 `json:"predicted_makespan_s,omitempty"`
	SimulatedMakespanS float64 `json:"simulated_makespan_s,omitempty"`

	// The power budget of the epoch: the configured cap, the cap it
	// planned under (below the configured one when the heatsink's budget
	// binds) and how much of the configured cap execution used.
	CapWatts       float64 `json:"cap_watts"`
	PlanCapWatts   float64 `json:"plan_cap_watts,omitempty"`
	AvgPowerWatts  float64 `json:"avg_power_watts,omitempty"`
	MaxPowerWatts  float64 `json:"max_power_watts,omitempty"`
	CapUtilization float64 `json:"cap_utilization,omitempty"`
	EnergyJoules   float64 `json:"energy_joules,omitempty"`

	// Per-plane caps the epoch planned under, the measured plane
	// powers, and the thermal outcome from the heatsink the epoch
	// started on.
	PP0CapWatts       float64 `json:"pp0_cap_watts,omitempty"`
	PP1CapWatts       float64 `json:"pp1_cap_watts,omitempty"`
	AvgPP0Watts       float64 `json:"avg_pp0_watts,omitempty"`
	AvgPP1Watts       float64 `json:"avg_pp1_watts,omitempty"`
	StartTempC        float64 `json:"start_temp_c,omitempty"`
	MaxTempC          float64 `json:"max_temp_c,omitempty"`
	Throttles         int     `json:"throttles,omitempty"`
	BindingConstraint string  `json:"binding_constraint,omitempty"`

	ClockStartS float64 `json:"clock_start_s"`
	ClockEndS   float64 `json:"clock_end_s,omitempty"`

	Error string `json:"error,omitempty"`
}

// loop is the single scheduler goroutine: it owns the epoch cycle and
// is the only writer of job state transitions past admission.
func (s *Server) loop(ctx context.Context) {
	defer func() {
		// The drain contract: everything journaled during the final
		// flush round is on stable storage before Drained closes.
		if s.jl != nil {
			_ = s.jl.Sync()
		}
		s.m.up.Set(0)
		close(s.drained)
	}()
	s.m.up.Set(1)
	// Startup recovery has handed its re-enqueued queue to this loop;
	// the server is now ready (GET /readyz).
	s.ready.Store(true)
	for {
		if ctx.Err() != nil {
			s.markDraining()
		}
		s.admMu.Lock()
		pending := s.adm.Len()
		draining := s.draining.Load()
		if pending == 0 && draining {
			s.syncQueueGauges()
			s.admMu.Unlock()
			return
		}
		s.admMu.Unlock()
		if pending == 0 {
			select {
			case <-ctx.Done():
			case <-s.stop:
				s.markDraining()
			case <-s.wake:
			}
			continue
		}
		// Claim the initial batch before the gap: the gap then doubles
		// as the preemption window. Arrivals during it either coalesce
		// into the epoch (batch below MaxBatch) or, when strictly
		// higher-priority, displace claimed members at the boundary.
		// EpochGap is the longest wait: an arrival that leaves MaxBatch
		// jobs on hand closes the epoch at once.
		claimed := s.claimBatch()
		s.m.epochCloses.Inc(s.awaitBoundary(ctx, len(claimed), draining))
		s.runEpoch(claimed)
	}
}

// awaitBoundary waits out the batching gap after a claim of n jobs and
// returns what ended it: "gap" (EpochGap elapsed, or is 0), "full" (an
// arrival left MaxBatch jobs on hand, so nothing later can join the
// epoch) or "drain". Only an arrival closes a full epoch early: with
// nothing queued, a claim that is already full keeps the whole gap as
// its preemption window, and a stale wake token changes nothing.
func (s *Server) awaitBoundary(ctx context.Context, n int, draining bool) string {
	if draining {
		return "drain"
	}
	if s.cfg.EpochGap <= 0 {
		return "gap"
	}
	t := time.NewTimer(s.cfg.EpochGap)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return "drain"
		case <-s.stop:
			return "drain"
		case <-t.C:
			return "gap"
		case <-s.wake:
			s.admMu.Lock()
			queued := s.adm.Len()
			s.admMu.Unlock()
			if mb := s.cfg.MaxBatch; mb > 0 && queued > 0 && n+queued >= mb {
				return "full"
			}
		}
	}
}

// claimBatch selects the next epoch's initial members through the
// admission layer: strict priority across classes, weighted fair
// queueing across tenants within a class.
func (s *Server) claimBatch() []admission.Entry {
	s.admMu.Lock()
	defer s.admMu.Unlock()
	claimed := s.adm.SelectBatch(s.cfg.MaxBatch, time.Now().UTC())
	s.syncQueueGauges()
	return claimed
}

// publishBatch publishes fresh immutable snapshots for every job in
// the scheduler's private batch and returns them.
func (s *Server) publishBatch(batch []Job) []*Job {
	snaps := make([]*Job, len(batch))
	for i := range batch {
		pj := batch[i]
		s.table.publish(&pj)
		snaps[i] = &pj
	}
	return snaps
}

// runEpoch finalizes the claimed batch at the epoch boundary and runs
// one scheduling round.
//
// The scheduler works on private copies of the claimed jobs (the
// admission payloads are published snapshots and immutable); every
// externally meaningful transition is published to the table as a
// fresh snapshot. Only terminal transitions are journaled (in one
// batch at the end of the round) — the intermediate planned/running
// records carried no recovery information, since startup replay
// resets every non-terminal job to queued anyway.
func (s *Server) runEpoch(claimed []admission.Entry) {
	s.admMu.Lock()
	// The boundary decision: absorb gap arrivals up to MaxBatch, then
	// let strictly higher-priority arrivals displace the lowest-
	// priority claimed members. Displaced jobs return to the front of
	// their tenant queue with their original tags — requeued, not
	// resubmitted — and run next epoch.
	kept, requeued := s.adm.Preempt(claimed, s.cfg.MaxBatch, time.Now().UTC())
	s.syncQueueGauges()
	s.admMu.Unlock()
	if len(requeued) > 0 {
		s.m.preemptions.Add(float64(len(requeued)))
	}
	batch := make([]Job, len(kept))
	for i, e := range kept {
		batch[i] = *e.Payload.(*Job)
	}
	epoch := s.epochCount + 1
	ctl := s.ctl.Load()
	clock := s.node.Clock()
	seed := epochSeed(s.cfg.Seed, epoch)
	insts := make([]*workload.Instance, len(batch))
	var specErr error
	for i := range batch {
		j := &batch[i]
		j.State = JobPlanned
		j.Epoch = epoch
		spec := workload.JobSpec{
			Program: j.Program, Scale: j.Scale, Label: j.Label,
			DeadlineS: j.DeadlineS, Tenant: j.Tenant, Priority: j.Priority,
		}
		inst, err := spec.Instance(i, j.ID)
		if err != nil {
			specErr = err
			break
		}
		insts[i] = inst
	}
	s.publishBatch(batch)
	s.lastPlan.Store(newPlanView(epoch, ctl, clock, batch))
	if specErr != nil {
		s.finishEpochErr(batch, epoch, specErr)
		return
	}

	// The epoch failpoint: an injected error fails this batch (the
	// daemon stays up, exactly like an unschedulable cap), and a
	// latency rule models a planning-epoch overrun.
	if err := s.cfg.Faults.Hit(SiteEpoch); err != nil {
		s.finishEpochErr(batch, epoch, err)
		return
	}

	opts := online.Options{
		Cfg: s.cfg.Machine, Mem: s.mem, Char: s.cfg.Char,
		Cap: ctl.cap, Domains: ctl.domains, Policy: ctl.policy, Seed: seed,
	}
	opts.Planned = func(plan *core.Schedule, predicted units.Seconds) {
		for i := range batch {
			batch[i].State = JobRunning
			if predicted > 0 {
				batch[i].PredictedFinishSimS = float64(clock + predicted)
			}
		}
		s.publishBatch(batch)
		run := *s.lastPlan.Load()
		run.State = "running"
		run.PlanCapWatts = float64(s.node.PlanCap())
		run.StartTempC = s.node.Heat().TempC
		fillPlan(&run, plan, predicted, batch)
		s.lastPlan.Store(&run)
		if predicted > 0 {
			s.m.predMakespan.Set(float64(predicted))
		}
	}

	start := time.Now()
	_, _, res, err := s.node.Run(opts, insts, seed)
	s.m.epochLatency.Observe(time.Since(start).Seconds())
	s.lastEpochWall.Store(int64(time.Since(start)))
	s.syncModelMetrics()
	if err != nil {
		s.finishEpochErr(batch, epoch, err)
		return
	}

	partners := partnerMap(res.Completions)
	for _, c := range res.Completions {
		j := &batch[c.Inst.ID]
		j.State = JobDone
		j.StartedSimS = float64(clock + c.Start)
		j.FinishedSimS = float64(clock + c.End)
		j.ResponseS = j.FinishedSimS - j.ArrivedSimS
		j.Device = c.Dev.String()
		if p, ok := partners[c.Inst.ID]; ok {
			j.Partner = batch[p].ID
		}
		if j.DeadlineS > 0 {
			met := j.ResponseS <= j.DeadlineS
			j.DeadlineMet = &met
			if !met {
				s.m.deadlineMiss.Inc()
			}
		}
	}
	endClock := s.node.Clock()
	s.epochCount = epoch
	snaps := s.publishBatch(batch)

	s.m.epochs.Inc()
	s.m.done.Add(float64(len(res.Completions)))
	s.m.scheduled.Add(ctl.policy, float64(len(res.Completions)))
	s.m.energy.Add(res.EnergyJ)
	s.m.simMakespan.Set(float64(res.Makespan))
	s.m.simClock.Set(float64(endClock))
	if ctl.cap > 0 {
		s.m.capUtil.Set(float64(res.AvgPower) / float64(ctl.cap))
	}
	s.m.domainWatts.Set("pp0", float64(res.AvgPP0))
	s.m.domainWatts.Set("pp1", float64(res.AvgPP1))
	s.m.tempC.Set(res.MaxTempC)
	s.m.planCap.Set(float64(s.node.PlanCap()))
	s.m.throttleTotal.Add(float64(res.Throttles))
	for _, c := range bindingConstraints {
		v := 0.0
		if c == res.Binding.String() {
			v = 1
		}
		s.m.binding.Set(c, v)
	}

	s.traceMu.Lock()
	s.traceMakespan.MustAdd(endClock, float64(res.Makespan))
	s.tracePower.MustAdd(endClock, float64(res.AvgPower))
	s.traceBatch.MustAdd(endClock, float64(len(batch)))
	for _, series := range []*trace.Series{s.traceMakespan, s.tracePower, s.traceBatch} {
		series.Trim(maxTraceEpochs)
	}
	s.traceMu.Unlock()

	done := *s.lastPlan.Load() // the running view
	done.State = "done"
	done.SimulatedMakespanS = float64(res.Makespan)
	done.AvgPowerWatts = float64(res.AvgPower)
	done.MaxPowerWatts = float64(res.MaxSample)
	if ctl.cap > 0 {
		done.CapUtilization = float64(res.AvgPower) / float64(ctl.cap)
	}
	done.EnergyJoules = res.EnergyJ
	done.AvgPP0Watts = float64(res.AvgPP0)
	done.AvgPP1Watts = float64(res.AvgPP1)
	done.MaxTempC = res.MaxTempC
	done.Throttles = res.Throttles
	done.BindingConstraint = res.Binding.String()
	done.ClockEndS = float64(endClock)
	s.lastPlan.Store(&done)
	heat := s.node.Heat()
	s.journalAppend(s.stateRecords(snaps, float64(endClock), &journal.Heat{
		TempC: heat.TempC, CPUCeil: heat.Ceil[apu.CPU], GPUCeil: heat.Ceil[apu.GPU],
	}))
}

// epochSeed derives the per-epoch RNG seed for randomized policies
// from the configured seed and the epoch number (splitmix64 finalizer).
// Deriving instead of drawing from a shared rand.Rand keeps runs
// reproducible for a given (seed, epoch) regardless of interleaving,
// and leaves nothing for concurrent paths to contend on.
func epochSeed(seed int64, epoch int) int64 {
	z := uint64(seed) + uint64(epoch)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// finishEpochErr marks a failed round. The daemon stays up: one
// unschedulable batch (e.g. the cap was dropped below feasibility
// between admission and planning) must not take the node down.
func (s *Server) finishEpochErr(batch []Job, epoch int, err error) {
	for i := range batch {
		batch[i].State = JobFailed
		batch[i].Error = err.Error()
	}
	snaps := s.publishBatch(batch)
	s.m.failed.Add(float64(len(batch)))
	s.m.epochs.Inc()
	s.epochCount = epoch
	failed := *s.lastPlan.Load() // the epoch's planning or running view
	failed.State = "failed"
	failed.Error = err.Error()
	s.lastPlan.Store(&failed)
	s.journalAppend(s.stateRecords(snaps, 0, nil))
}

// bindingConstraints are the label values of corund_binding_constraint,
// pre-registered so dashboards see zeros instead of absent series.
var bindingConstraints = []string{"none", "pp0", "pp1", "package", "thermal"}

// newPlanView is an epoch's view while it plans: the batch and the
// control state it plans under. Every later view of the epoch is a
// copy of it.
func newPlanView(epoch int, ctl *control, clock units.Seconds, batch []Job) *PlanView {
	pv := &PlanView{
		Epoch:       epoch,
		Policy:      ctl.policy,
		State:       "planning",
		CapWatts:    float64(ctl.cap),
		PP0CapWatts: float64(ctl.domains.PP0),
		PP1CapWatts: float64(ctl.domains.PP1),
		ClockStartS: float64(clock),
	}
	for i := range batch {
		pv.Jobs = append(pv.Jobs, batch[i].ID)
	}
	return pv
}

// fillPlan adds the planned orders and the predicted makespan to a
// running view; a nil plan (the dispatcher-driven baselines) adds
// nothing.
func fillPlan(pv *PlanView, plan *core.Schedule, predicted units.Seconds, batch []Job) {
	if plan == nil {
		return
	}
	for _, i := range plan.CPUOrder {
		pv.CPUOrder = append(pv.CPUOrder, batch[i].ID)
	}
	for _, i := range plan.GPUOrder {
		pv.GPUOrder = append(pv.GPUOrder, batch[i].ID)
	}
	for _, i := range plan.Jobs() {
		if plan.Exclusive[i] {
			pv.Exclusive = append(pv.Exclusive, batch[i].ID)
		}
	}
	pv.PredictedMakespanS = float64(predicted)
}

// partnerMap pairs each completed job with the opposite-device job it
// overlapped longest with, by instance ID.
func partnerMap(cs []sim.Completion) map[int]int {
	out := map[int]int{}
	for i, a := range cs {
		best, bestOv := -1, units.Seconds(0)
		for j, b := range cs {
			if i == j || a.Dev == b.Dev {
				continue
			}
			ov := min(a.End, b.End) - max(a.Start, b.Start)
			if ov > bestOv {
				bestOv = ov
				best = b.Inst.ID
			}
		}
		if best >= 0 {
			out[a.Inst.ID] = best
		}
	}
	return out
}

// syncModelMetrics publishes the state of the characterization's
// pair cache (tables and feasible lists) after an epoch. Scheduler goroutine only.
func (s *Server) syncModelMetrics() {
	if s.cfg.Char == nil {
		return
	}
	st := s.cfg.Char.PairCacheStats()
	s.m.pairTables.Set(float64(st.Tables))
	s.m.feasibleLists.Set(float64(st.FeasibleLists))
	s.m.interpolations.Add(float64(st.Interpolations - s.interpolationsSeen))
	s.interpolationsSeen = st.Interpolations
}

// syncQueueGauges refreshes the queue-shape gauges from the admission
// state. Callers hold admMu. Runs only on the scheduler goroutine's
// claim/exit path — never on the request path.
func (s *Server) syncQueueGauges() {
	s.m.queueDepth.Set(float64(s.adm.Len()))
	s.adm.EachDepth(func(tenant string, depth int) {
		s.m.tenantQueued.Set(tenant, float64(depth))
	})
	s.m.oldestWait.Set(s.adm.OldestWait(time.Now().UTC()).Seconds())
}

// journalAppend best-effort journals job lifecycle records from the
// scheduler goroutine. A failure must not take the node down
// mid-epoch, so the records are dropped and counted — as an error
// (corund_journal_errors_total) when the write failed past its
// retries, or silently suspended while the breaker holds the daemon
// degraded. Dropped lifecycle records cost nothing but work: on a
// restart the affected jobs replay as non-terminal and re-run, so an
// acknowledged job is still never lost.
func (s *Server) journalAppend(recs []journal.Record) {
	if err := s.appendDurable(context.Background(), recs...); err != nil {
		if !errors.Is(err, ErrDegraded) && !errors.Is(err, journal.ErrClosed) {
			s.m.jlErrors.Inc()
		}
		s.m.jlDropped.Add(float64(len(recs)))
	}
}

// stateRecords journals published snapshots as state records (none
// without a journal): each record carries the snapshot itself. clock
// is the scheduling clock after the transitions' epoch (0 for
// transitions that do not advance it), and heat the node's heatsink
// then (nil with clock 0), which the first record carries.
func (s *Server) stateRecords(snaps []*Job, clock float64, heat *journal.Heat) []journal.Record {
	if s.jl == nil {
		return nil
	}
	recs := make([]journal.Record, len(snaps))
	for i, j := range snaps {
		recs[i] = journal.Record{Type: journal.TypeJobState, Job: j, SimClockS: clock}
	}
	if len(recs) > 0 {
		recs[0].Heat = heat
	}
	return recs
}
