// Package online builds an arrival-driven co-scheduling server on top
// of the batch machinery: jobs arrive over (simulated) time at a
// power-capped APU node, and the server repeatedly plans and executes
// co-schedules for whatever is queued.
//
// This is the "take effect online" operating mode the paper motivates
// in section III: the scheduler itself is cheap enough (< 0.1% of
// makespan) to re-run at every scheduling epoch. The server uses an
// epoch model — while one planned batch executes, newly arrived jobs
// queue; when the batch drains, the queue is re-planned — which is how
// non-preemptive accelerator queues behave in practice. Node.Run is
// that epoch step for Serve and the corund daemon alike.
package online

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"corun/internal/apu"
	"corun/internal/core"
	"corun/internal/kernelsim"
	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/policy"
	"corun/internal/profile"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// CheckPolicy resolves name through the policy table (aliases,
// case-insensitive) and checks it can serve epochs: a policy that
// plans over the predictive model needs the offline characterization.
// It returns the canonical name. Every entry point that accepts a
// policy from outside (server config, POST /v1/policy, journal
// recovery) funnels through this check, so an unknown or unservable
// name is rejected up front with the same error Node.Run would
// return mid-epoch.
func CheckPolicy(name string, haveChar bool) (string, error) {
	pol, err := policy.Canonical(name)
	if err != nil {
		return "", err
	}
	if policy.NeedsModel(pol) && !haveChar {
		return "", fmt.Errorf("online: model-based policies need a characterization")
	}
	return pol, nil
}

// Arrival is one job arriving at the server.
type Arrival struct {
	At    units.Seconds
	Prog  *kernelsim.Program
	Scale float64
	Label string
}

// Validate checks that the arrival has a program, a finite arrival
// time and a finite, positive scale.
func (a Arrival) Validate() error {
	if a.Prog == nil {
		return fmt.Errorf("online: arrival %q has no program", a.Label)
	}
	if err := units.CheckFinite("At", float64(a.At)); err != nil {
		return fmt.Errorf("online: arrival %q: %w", a.Label, err)
	}
	if err := units.CheckPositive("Scale", a.Scale); err != nil {
		return fmt.Errorf("online: arrival %q: %w", a.Label, err)
	}
	return nil
}

// Options configures the server.
type Options struct {
	Cfg  *apu.Config
	Mem  *memsys.Model
	Char *model.Characterization
	Cap  units.Watts
	// Domains are optional RAPL-style per-plane caps (PP0 = CPU cores,
	// PP1 = iGPU), enforced during planning and execution under the
	// package cap, Cap.
	Domains apu.DomainCaps

	// Policy is a policy table name (canonical or alias).
	Policy string
	// Seed drives the Random policy and refinement sampling.
	Seed int64

	// Planned, if set, observes each epoch's plan after scheduling but
	// before execution. plan is nil for the dispatcher-driven baselines
	// (Random/Default); predicted is the model's makespan estimate for
	// the planned schedule (0 without a plan). A daemon uses this to
	// expose in-flight state (job status, predicted finish) while the
	// epoch executes.
	Planned func(plan *core.Schedule, predicted units.Seconds)
}

// check validates the options themselves (not an arrival stream) and
// returns the policy's canonical name: machine and memory models must
// be present, the policy must be a registered one, model-based
// policies need a characterization, and the caps must be feasible on
// the machine.
func (o Options) check() (string, error) {
	if o.Cfg == nil || o.Mem == nil {
		return "", fmt.Errorf("online: nil machine or memory model")
	}
	pol, err := CheckPolicy(o.Policy, o.Char != nil)
	if err != nil {
		return "", err
	}
	if err := o.Cfg.CheckCaps(o.Cap, o.Domains); err != nil {
		return "", err
	}
	return pol, nil
}

// JobOutcome records one served job.
type JobOutcome struct {
	Label string
	// Arrived, Started, Finished are absolute server times; Started is
	// the epoch start (jobs wait for the running epoch to drain).
	Arrived  units.Seconds
	Started  units.Seconds
	Finished units.Seconds
}

// Response is the job's total time in the system.
func (j JobOutcome) Response() units.Seconds { return j.Finished - j.Arrived }

// Result summarizes a served arrival stream.
type Result struct {
	Outcomes []JobOutcome
	// Done is the time the last job finished.
	Done units.Seconds
	// Epochs is how many scheduling rounds ran.
	Epochs int
	// MeanResponse and MaxResponse summarize job latencies.
	MeanResponse units.Seconds
	MaxResponse  units.Seconds
	// EnergyJ is total energy across epochs.
	EnergyJ float64

	// The stream's sums over its epochs, for the ledger: the throttle
	// clamps applied, the hottest the heatsink got, the mean jobs per
	// epoch, and the summed predicted and simulated epoch makespans
	// (Predicted counts planned epochs only; Random plans none).
	Throttles int
	PeakTempC float64
	MeanBatch float64
	Predicted units.Seconds
	Simulated units.Seconds
}

// Serve runs the arrival stream to completion.
func Serve(opts Options, arrivals []Arrival) (*Result, error) {
	if _, err := opts.check(); err != nil {
		return nil, err
	}
	if len(arrivals) == 0 {
		return &Result{}, nil
	}
	for _, a := range arrivals {
		if err := a.Validate(); err != nil {
			return nil, err
		}
	}
	sorted := append([]Arrival(nil), arrivals...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })

	res := &Result{}
	var node Node
	next := 0
	rng := rand.New(rand.NewSource(opts.Seed))

	for next < len(sorted) {
		// Wait for work, then take everything that has arrived by now.
		node.Idle(sorted[next].At, opts.Cfg)
		start := node.Clock()
		var epoch []Arrival
		for next < len(sorted) && sorted[next].At <= start {
			epoch = append(epoch, sorted[next])
			next++
		}
		batch := make([]*workload.Instance, len(epoch))
		for i, a := range epoch {
			batch[i] = &workload.Instance{ID: i, Prog: a.Prog, Scale: a.Scale, Label: a.Label}
		}

		_, predicted, simRes, err := node.Run(opts, batch, rng.Int63())
		if err != nil {
			return nil, err
		}
		res.Epochs++
		res.EnergyJ += simRes.EnergyJ
		res.Throttles += simRes.Throttles
		res.PeakTempC = max(res.PeakTempC, simRes.MaxTempC)
		res.Predicted += predicted
		res.Simulated += simRes.Makespan
		for _, c := range simRes.Completions {
			// Map the completion back to its arrival.
			a := epoch[c.Inst.ID]
			res.Outcomes = append(res.Outcomes, JobOutcome{
				Label:    a.Label,
				Arrived:  a.At,
				Started:  start,
				Finished: start + c.End,
			})
		}
		res.Done = node.Clock()
	}

	sum, max := 0.0, units.Seconds(0)
	for _, o := range res.Outcomes {
		r := o.Response()
		sum += float64(r)
		if r > max {
			max = r
		}
	}
	if len(res.Outcomes) > 0 {
		res.MeanResponse = units.Seconds(sum / float64(len(res.Outcomes)))
		res.MeanBatch = float64(len(res.Outcomes)) / float64(res.Epochs)
	}
	res.MaxResponse = max
	return res, nil
}

// Node is the state one simulated machine carries from epoch to epoch:
// its scheduling clock, the heatsink the last epoch or idle wait left
// and the cap the last epoch planned under; the zero value is idle and
// cold at time 0. Each loop driving a node keeps only its own rule for
// closing a batch. Clock may be read from any goroutine, everything
// else only from the loop.
type Node struct {
	clock atomic.Uint64 // units.Seconds bits

	// heat is nil until the node has run, been restored or waited:
	// cold.
	heat    *apu.Heat
	planCap units.Watts
}

// Clock returns the node's scheduling clock, in simulated seconds.
func (n *Node) Clock() units.Seconds {
	return units.Seconds(math.Float64frombits(n.clock.Load()))
}

// Heat returns the node's heatsink: as the last epoch or idle wait left
// it, or cfg's cold one.
func (n *Node) Heat(cfg *apu.Config) apu.Heat {
	if n.heat == nil {
		return cfg.Cold()
	}
	return *n.heat
}

// PlanCap returns the package cap the last epoch planned under: the
// heatsink's budget cap (see Run), or the options' cap.
func (n *Node) PlanCap() units.Watts { return n.planCap }

// Idle moves the clock forward to t if t is later: the node waited for
// work. The heatsink spends the wait at cfg's idle power, and a
// throttle ceiling is released once the wait has cooled the node below
// the release point, TMaxC - HysteresisC.
func (n *Node) Idle(t units.Seconds, cfg *apu.Config) {
	now := n.Clock()
	if t <= now {
		return
	}
	if tp := cfg.Thermal; tp.Enabled() {
		h := n.Heat(cfg)
		h.TempC = tp.Step(h.TempC, cfg.IdlePower, t-now)
		if h.TempC < tp.TMaxC-tp.HysteresisC {
			h.Ceil = cfg.Cold().Ceil
		}
		n.heat = &h
	}
	n.clock.Store(math.Float64bits(float64(t)))
}

// Restore puts the node where a journal left it: the clock after the
// last journaled epoch, if later than its own, and that epoch's
// heatsink (nil: cold, as a journal older than the heatsink reads).
func (n *Node) Restore(clock units.Seconds, heat *apu.Heat) {
	if clock > n.Clock() {
		n.clock.Store(math.Float64bits(float64(clock)))
	}
	n.heat = heat
}

// Run schedules and executes one batch (instance IDs equal to their
// indices) under the options' policy, through the policy table's one
// run entry point, on the heatsink the node carries, and advances the
// clock by its makespan and the heatsink to the state the run left. It
// returns what policy.Run does: the plan (nil for the dispatcher-driven
// baselines), its predicted makespan (0 without one) and the
// simulation, whose times are relative to the clock before the call. An
// error, a job left uncompleted included, leaves the clock and the
// heatsink where they were.
//
// A policy that needs the model gets the batch's predictor and a
// scheduling context at the heatsink's budget cap (budgetCap); the
// executor keeps the options' cap. One that does not (the Random
// baseline) profiles nothing.
func (n *Node) Run(opts Options, batch []*workload.Instance, seed int64) (*core.Schedule, units.Seconds, *sim.Result, error) {
	pol, err := opts.check()
	if err != nil {
		return nil, 0, nil, err
	}
	start := n.Heat(opts.Cfg)
	planCap := opts.Cap
	var cx *core.Context
	if policy.NeedsModel(pol) {
		var pred *model.Predictor
		if pred, err = opts.Predictor(batch); err == nil {
			if planCap, err = opts.budgetCap(pred, start.TempC); err == nil {
				at := opts
				at.Cap = planCap
				cx, err = at.Context(pred)
			}
		}
	} else {
		err = checkBatch(batch)
	}
	if err != nil {
		return nil, 0, nil, err
	}
	n.planCap = planCap
	execOpts := core.ExecOptions{Cfg: opts.Cfg, Mem: opts.Mem, Cap: opts.Cap, Domains: opts.Domains, Start: &start}
	plan, predicted, res, err := policy.Run(pol, cx, batch, execOpts, policy.Options{Seed: seed}, opts.Planned)
	if err != nil {
		return nil, 0, nil, err
	}
	if len(res.Completions) != len(batch) {
		return nil, 0, nil, fmt.Errorf("online: %d of %d jobs completed", len(res.Completions), len(batch))
	}
	end := res.End
	n.heat = &end
	n.clock.Store(math.Float64bits(float64(n.Clock() + res.Makespan)))
	return plan, predicted, res, nil
}

// budgetCap is the cap a batch is planned under when the heatsink starts
// at t0: the thermal model's BudgetCap over the batch's solo horizon at
// P_sus (core.Context.SoloHorizon), capped by the options' cap — by the
// machine's maximum package power when uncapped. It is the options' cap
// wherever the heatsink cannot bind: P_sus at or above that bound, the
// model off, a job with no solo run under P_sus, or a budget that
// reaches the bound.
func (o Options) budgetCap(oracle core.Oracle, t0 float64) (units.Watts, error) {
	tp := o.Cfg.Thermal
	upper := o.Cap
	if upper <= 0 {
		upper = o.Cfg.MaxPackagePower()
	}
	if !tp.Enabled() || tp.SustainedPower() >= upper {
		return o.Cap, nil
	}
	at := o
	at.Cap = tp.SustainedPower()
	sus, err := at.Context(oracle)
	if err != nil {
		return 0, err
	}
	horizon, ok := sus.SoloHorizon()
	if !ok {
		return o.Cap, nil
	}
	if c := tp.BudgetCap(t0, horizon, upper); c < upper {
		return c, nil
	}
	return o.Cap, nil
}

// checkBatch rejects a batch that cannot be indexed by position: empty,
// holding a nil instance, or numbered otherwise.
func checkBatch(batch []*workload.Instance) error {
	if len(batch) == 0 {
		return fmt.Errorf("online: empty batch")
	}
	for i, in := range batch {
		if in == nil {
			return fmt.Errorf("online: nil instance at %d", i)
		}
		if in.ID != i {
			return fmt.Errorf("online: instance %q has ID %d at position %d; IDs must equal positions", in.Label, in.ID, i)
		}
	}
	return nil
}

// Predictor and Context are the two steps of the one pipeline from a
// batch to a scheduling context (only Cfg, Mem, Char, Cap and Domains
// are read). Node.Run — hence Serve and the corund daemon — the corun
// facade's Prepare and the evaluation harness all build their contexts
// here, so they cannot disagree on batch validation, on reading
// degradations through the pair tables, or on the caps the planner sees.
//
// Predictor checks the batch, profiles it offline on the options'
// machine and binds the profiles to the characterization's pair tables.
// Callers that calibrate the result or need its profile (the
// ground-truth oracle) do so before handing an oracle to Context.
func (o Options) Predictor(batch []*workload.Instance) (*model.Predictor, error) {
	if err := checkBatch(batch); err != nil {
		return nil, err
	}
	prof, err := profile.Collect(o.Cfg, o.Mem, batch)
	if err != nil {
		return nil, err
	}
	return model.NewPredictor(o.Char, prof)
}

// Context builds the scheduling context over a batch's oracle under the
// options' package and per-plane caps.
func (o Options) Context(oracle core.Oracle) (*core.Context, error) {
	cx, err := core.NewContext(oracle, o.Cfg, o.Cap)
	if err != nil {
		return nil, err
	}
	cx.Domains = o.Domains // before the first query: the memos assume fixed caps
	return cx, nil
}

// GenerateArrivals produces a seeded arrival stream: n jobs drawn
// uniformly from the benchmark set with exponential-ish inter-arrival
// gaps of the given mean (seconds) and input scales in [0.8, 1.3].
func GenerateArrivals(n int, meanGap float64, seed int64) ([]Arrival, error) {
	if n <= 0 {
		return nil, fmt.Errorf("online: need at least one arrival")
	}
	if meanGap < 0 {
		return nil, fmt.Errorf("online: negative mean gap")
	}
	rng := rand.New(rand.NewSource(seed))
	names := workload.Names()
	out := make([]Arrival, n)
	t := 0.0
	for i := range out {
		name := names[rng.Intn(len(names))]
		prog, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = Arrival{
			At:    units.Seconds(t),
			Prog:  prog,
			Scale: 0.8 + 0.5*rng.Float64(),
			Label: fmt.Sprintf("%s@%d", name, i),
		}
		t += rng.ExpFloat64() * meanGap
	}
	return out, nil
}
