package policy

import (
	"corun/internal/core"
	"corun/internal/sim"
	"corun/internal/workload"
)

// table is the policy family, one row each. The GPU-biased governor of
// random and default is the paper's comparison setting (section VI-A);
// default-cpu is its Default_C arm.
var table = []row{
	{
		name: "hcs",
		desc: "heuristic co-scheduling (section IV-A): partition, categorize, greedy plan",
		plan: func(cx *core.Context, _ int64) (*core.Schedule, error) {
			return cx.HCS(core.HCSOptions{})
		},
	},
	{
		name:    "hcs+",
		aliases: []string{"hcsplus"},
		desc:    "HCS plus the post local refinement (section IV-A.3)",
		plan: func(cx *core.Context, seed int64) (*core.Schedule, error) {
			s, _, err := cx.HCSPlus(core.HCSOptions{}, core.RefineOptions{Seed: seed})
			return s, err
		},
	},
	{
		name: "optimal",
		desc: "exhaustive optimal-makespan search (validation; at most 8 jobs)",
		plan: func(cx *core.Context, _ int64) (*core.Schedule, error) {
			s, _, err := cx.OptimalSchedule()
			return s, err
		},
	},
	{
		name: "anneal",
		desc: "simulated annealing over the schedule space, seeded by HCS",
		plan: func(cx *core.Context, seed int64) (*core.Schedule, error) {
			start, err := cx.HCS(core.HCSOptions{})
			if err != nil {
				return nil, err
			}
			s, _, err := cx.Anneal(start, seed)
			return s, err
		},
	},
	{
		name:    "genetic",
		aliases: []string{"metaheuristic"},
		desc:    "evolutionary search over the schedule space, seeded by HCS",
		plan: func(cx *core.Context, seed int64) (*core.Schedule, error) {
			// The HCS seed joins the initial population when feasible;
			// the search stands alone when it is not.
			gopts := core.GeneticOptions{Seed: seed}
			if start, err := cx.HCS(core.HCSOptions{}); err == nil {
				gopts.SeedSchedule = start
			}
			s, _, err := cx.Genetic(gopts)
			return s, err
		},
	},
	{
		name:      "random",
		desc:      "Random baseline plan: seeded random placement and order",
		modelFree: true,
		plan: func(cx *core.Context, seed int64) (*core.Schedule, error) {
			return core.RandomPlan(cx.Oracle.NumJobs(), seed), nil
		},
		exec: func(_ *core.Context, batch []*workload.Instance, opts core.ExecOptions, seed int64) (*sim.Result, error) {
			return core.ExecuteRandom(opts, batch, seed)
		},
	},
	defaultRow("default", []string{"default-gpu"}, sim.GPUBiased,
		"Default baseline plan: ranking partition, sequential per-device queues"),
	defaultRow("default-cpu", nil, sim.CPUBiased,
		"Default baseline under the CPU-biased governor (the paper's Default_C)"),
}

// defaultRow is the Default baseline under one governor bias. Its
// planned form (the partition as two sequential queues) does not
// depend on the bias; its execution does.
func defaultRow(name string, aliases []string, bias sim.Bias, desc string) row {
	return row{
		name:    name,
		aliases: aliases,
		desc:    desc,
		plan: func(cx *core.Context, _ int64) (*core.Schedule, error) {
			cpu, gpu := core.DefaultPartition(cx.Oracle, cx.Cfg)
			return &core.Schedule{CPUOrder: cpu, GPUOrder: gpu, Exclusive: map[int]bool{}}, nil
		},
		exec: func(cx *core.Context, batch []*workload.Instance, opts core.ExecOptions, _ int64) (*sim.Result, error) {
			return core.ExecuteDefault(opts, batch, cx.Oracle, bias)
		},
	}
}
