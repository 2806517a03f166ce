// Package policy is the co-scheduling policy table: the one place that
// knows what a policy is. Every front end — the corun facade, the
// online epoch scheduler, the corund daemon, the command-line tools
// and the evaluation harness — resolves a policy by name here and
// plans or runs it through Plan and Run; nothing outside this package
// compares a policy name.
//
// The paper's evaluation (section VI-A) is a family of interchangeable
// arms — Random, Default_G, Default_C, HCS, HCS+ and the optimal bound
// — judged under one predictive model on one machine. Each arm is one
// row of the table in table.go: canonical name, aliases, description,
// whether it needs the model, how it plans and, for the
// dispatcher-driven baselines, how it executes. A new policy is one
// more row.
//
// Names are matched lower-case with surrounding whitespace removed;
// an unknown name is rejected with an error that lists every valid
// one, so API layers can surface it directly as a 400.
package policy

import (
	"fmt"
	"sort"
	"strings"

	"corun/internal/core"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// Options passes per-plan knobs to a policy. The zero value is a valid
// default for every policy.
type Options struct {
	// Seed drives the stochastic parts: refinement sampling in hcs+,
	// the metaheuristic searches, and the random baseline.
	Seed int64
}

// Info describes one row of the table.
type Info struct {
	// Name is the canonical name.
	Name string `json:"name"`
	// Aliases are alternate spellings accepted wherever a name is.
	Aliases []string `json:"aliases,omitempty"`
	// Description is the policy's one-line summary.
	Description string `json:"description,omitempty"`
}

// row is one policy. Rows are immutable after package initialization
// and their functions keep no state of their own (per-batch state
// lives in the Context, whose memo tables are lock-guarded), so any
// number of goroutines may plan and run the same row at once.
type row struct {
	name    string
	aliases []string // sorted
	desc    string

	// modelFree rows never consult the predictive model: they serve
	// without a characterization and Run accepts a nil Context.
	modelFree bool

	// plan produces the row's schedule for the context's batch.
	plan func(cx *core.Context, seed int64) (*core.Schedule, error)

	// exec, when set, is how the row executes a batch: the
	// dispatcher-driven baselines place jobs as processors fall idle
	// instead of following their planned form. Rows without it execute
	// their plan.
	exec func(cx *core.Context, batch []*workload.Instance, opts core.ExecOptions, seed int64) (*sim.Result, error)
}

// byName indexes the table by canonical name and alias; names holds
// the canonical names, sorted. Both are built once, here, and only
// read afterwards (the package's table test checks that no two rows
// share a spelling).
var byName, names = func() (map[string]*row, []string) {
	idx := make(map[string]*row, 2*len(table))
	sorted := make([]string, 0, len(table))
	for i := range table {
		r := &table[i]
		idx[r.name] = r
		for _, a := range r.aliases {
			idx[a] = r
		}
		sorted = append(sorted, r.name)
	}
	sort.Strings(sorted)
	return idx, sorted
}()

// normalize is the single spelling rule of the table: names are
// compared lower-case with surrounding whitespace removed.
func normalize(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// lookup resolves a policy name (canonical or alias, case-insensitive,
// surrounding whitespace ignored) to its row. Unknown names are an
// error listing every valid name — never a silent default.
func lookup(name string) (*row, error) {
	if r := byName[normalize(name)]; r != nil {
		return r, nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q (valid: %s)", name, strings.Join(names, " | "))
}

// Canonical maps any accepted spelling to the canonical name; unknown
// names return the lookup error.
func Canonical(name string) (string, error) {
	r, err := lookup(name)
	if err != nil {
		return "", err
	}
	return r.name, nil
}

// NeedsModel reports whether the named policy plans over the
// predictive model and therefore needs the offline characterization
// (and a Context to Run on). Only a known model-free row reports
// false; unknown names are reported as needing it.
func NeedsModel(name string) bool {
	r := byName[normalize(name)]
	return r == nil || !r.modelFree
}

// Names returns the canonical names of every policy, sorted.
func Names() []string { return append([]string(nil), names...) }

// List returns every row's metadata, sorted by canonical name.
func List() []Info {
	out := make([]Info, len(names))
	for i, name := range names {
		r := byName[name]
		out[i] = Info{Name: r.name, Aliases: append([]string(nil), r.aliases...), Description: r.desc}
	}
	return out
}

// Plan resolves name and returns its schedule for the context's batch.
// The dispatcher-driven baselines plan too — their planned form is a
// plain Schedule that flows through the same predicted-makespan and
// execution paths as every other row's — but that is not how Run
// executes them.
func Plan(name string, cx *core.Context, opts Options) (*core.Schedule, error) {
	r, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return r.plan(cx, opts.Seed)
}

// Run executes the named policy on a batch on the ground-truth
// simulator — the one way any front end runs an arm. Instance IDs in
// the batch must equal their indices. cx is the batch's scheduling
// context; it may be nil for a row that needs no model (NeedsModel).
//
// A row that executes its plan returns the plan and the model's
// predicted makespan for it beside the result; planned, if not nil,
// observes both after planning and before execution. A
// dispatcher-driven baseline has no plan to follow: planned sees, and
// Run returns, a nil plan and a zero prediction.
func Run(name string, cx *core.Context, batch []*workload.Instance, exec core.ExecOptions, opts Options,
	planned func(plan *core.Schedule, predicted units.Seconds)) (*core.Schedule, units.Seconds, *sim.Result, error) {
	r, err := lookup(name)
	if err != nil {
		return nil, 0, nil, err
	}
	if cx == nil && !r.modelFree {
		return nil, 0, nil, fmt.Errorf("policy: %s needs a scheduling context", r.name)
	}
	if r.exec != nil {
		if planned != nil {
			planned(nil, 0)
		}
		res, err := r.exec(cx, batch, exec, opts.Seed)
		return nil, 0, res, err
	}
	plan, err := Plan(r.name, cx, opts)
	if err != nil {
		return nil, 0, nil, err
	}
	predicted, err := cx.PredictedMakespan(plan)
	if err != nil {
		return nil, 0, nil, err
	}
	if planned != nil {
		planned(plan.Clone(), predicted)
	}
	res, err := cx.Execute(plan, batch, exec)
	if err != nil {
		return nil, 0, nil, err
	}
	return plan, predicted, res, nil
}
