// Package exp is the evaluation harness: one entry point per table and
// figure of the paper's evaluation (section VI), each returning a typed
// result with a text renderer, so that cmd/experiments and the root
// benchmarks can regenerate the entire evaluation.
//
// The per-experiment index lives in DESIGN.md; EXPERIMENTS.md records
// paper-versus-measured values produced by this package.
package exp

import (
	"fmt"
	"time"

	"corun/internal/apu"
	"corun/internal/core"
	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/online"
	"corun/internal/policy"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// Suite bundles the machine, the contention model, and the one-time
// micro-benchmark characterization that all experiments share.
type Suite struct {
	Cfg  *apu.Config
	Mem  *memsys.Model
	Char *model.Characterization
}

// NewSuite builds the default machine and runs the characterization
// pass (the offline stage of section V).
func NewSuite() (*Suite, error) {
	cfg := apu.DefaultConfig()
	mem := memsys.Default()
	char, err := model.Characterize(model.CharacterizeOptions{Cfg: cfg, Mem: mem})
	if err != nil {
		return nil, err
	}
	return &Suite{Cfg: cfg, Mem: mem, Char: char}, nil
}

// options is the suite as the shared batch → context pipeline
// (online.Options.Predictor and Context) sees it, under a cap.
func (s *Suite) options(cap units.Watts) online.Options {
	return online.Options{Cfg: s.Cfg, Mem: s.Mem, Char: s.Char, Cap: cap}
}

// context assembles the prediction pipeline and scheduling context for
// a batch under a cap, and also returns the batch's predictor, the
// context's oracle.
func (s *Suite) context(batch []*workload.Instance, cap units.Watts) (*core.Context, *model.Predictor, error) {
	o := s.options(cap)
	pred, err := o.Predictor(batch)
	if err != nil {
		return nil, nil, err
	}
	cx, err := o.Context(pred)
	if err != nil {
		return nil, nil, err
	}
	return cx, pred, nil
}

// execOptions builds the simulator-facing execution options.
func (s *Suite) execOptions(cap units.Watts) core.ExecOptions {
	return core.ExecOptions{Cfg: s.Cfg, Mem: s.Mem, Cap: cap}
}

// armRun is one policy's run of a batch.
type armRun struct {
	// Plan is the schedule that was executed; nil for the
	// dispatcher-driven baselines.
	Plan *core.Schedule
	// PlanTime is the wall time the policy took to produce Plan.
	PlanTime time.Duration
	Result   *sim.Result
}

// run executes one arm of a comparison: the named policy table row on
// the batch, under the context's caps — the same call the online
// scheduler and the daemon make per epoch, so an experiment cannot run
// a different scheduler under a policy's name.
func (s *Suite) run(cx *core.Context, batch []*workload.Instance, name string, seed int64) (armRun, error) {
	var a armRun
	var err error
	start := time.Now()
	a.Plan, _, a.Result, err = policy.Run(name, cx, batch,
		core.ExecOptions{Cfg: s.Cfg, Mem: s.Mem, Cap: cx.Cap, Domains: cx.Domains},
		policy.Options{Seed: seed},
		func(*core.Schedule, units.Seconds) { a.PlanTime = time.Since(start) })
	return a, err
}

// randomAverage is the Random arm as the paper reports it (20 seeds in
// Figures 10/11): the mean makespan of the random policy over seeds
// 1..n.
func (s *Suite) randomAverage(cx *core.Context, batch []*workload.Instance, n int) (units.Seconds, error) {
	if n <= 0 {
		return 0, fmt.Errorf("exp: need at least one random seed")
	}
	sum := 0.0
	for seed := 1; seed <= n; seed++ {
		a, err := s.run(cx, batch, "random", int64(seed))
		if err != nil {
			return 0, err
		}
		sum += float64(a.Result.Makespan)
	}
	return units.Seconds(sum / float64(n)), nil
}

// maxFreqs returns the maximum frequency indices of both devices.
func (s *Suite) maxFreqs() (int, int) {
	return s.Cfg.MaxFreqIndex(apu.CPU), s.Cfg.MaxFreqIndex(apu.GPU)
}

// mediumFreqs returns the paper's medium setting: 2.2 GHz CPU,
// 0.85 GHz GPU.
func (s *Suite) mediumFreqs() (int, int) {
	return s.Cfg.ClosestFreqIndex(apu.CPU, 2.2), s.Cfg.ClosestFreqIndex(apu.GPU, 0.85)
}

// pct formats a fraction as a signed percentage.
func pct(f float64) string { return fmt.Sprintf("%+.1f%%", 100*f) }
