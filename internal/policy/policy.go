// Package policy is the pluggable co-scheduling layer: one registry
// through which every front end — the corun facade, the online epoch
// scheduler, the corund daemon, and the command-line tools — resolves
// scheduling policies by name.
//
// The paper's contribution is a family of interchangeable policies
// (HCS, HCS+, the optimal bound, the Random/Default baselines)
// evaluated under one predictive model; this package makes that family
// a first-class extension point. A new policy is a one-file change:
// implement Policy and call Register from an init function.
//
// The registry stores each policy under a canonical name plus optional
// aliases; Parse normalizes case and whitespace and rejects unknown
// names with an error that lists every valid one, so API layers can
// surface it directly as a 400.
package policy

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"corun/internal/core"
	"corun/internal/fault"
)

// SitePlan is the failpoint (internal/fault) checked on every plan
// request that resolves through the registry (Plan) against the
// fault.Default registry. Arming it injects planning failures or
// latency (a planning-epoch overrun) into every front end at once.
const SitePlan = "policy/plan"

// Options passes per-plan knobs to a policy. The zero value is a valid
// default for every registered policy.
type Options struct {
	// Seed drives the stochastic parts: refinement sampling in hcs+,
	// the metaheuristic searches, and the random baseline plan.
	Seed int64

	// HCS tunes the heuristic steps of the hcs/hcs+ policies (and the
	// HCS seed the metaheuristics start from).
	HCS core.HCSOptions

	// Workers bounds the worker pool of the parallel searches
	// (optimal, genetic); zero picks a machine-sized default.
	Workers int
}

// Policy plans a co-schedule for a prepared scheduling context. A
// Policy must be safe for concurrent Plan calls: all per-batch state
// lives in the Context (whose memo tables are lock-guarded), never in
// the Policy value itself.
type Policy interface {
	// Name is the canonical, lower-case registry name.
	Name() string

	// Plan produces a schedule for the context's batch. Implementations
	// must not retain or mutate the context beyond its documented
	// thread-safe query surface.
	Plan(cx *core.Context, opts Options) (*core.Schedule, error)
}

// Describer is optionally implemented by a Policy to expose a one-line
// summary (shown by GET /v1/policies and the command-line tools).
type Describer interface {
	Describe() string
}

// Info describes one registry entry.
type Info struct {
	// Name is the canonical name.
	Name string `json:"name"`
	// Aliases are alternate spellings accepted by Parse.
	Aliases []string `json:"aliases,omitempty"`
	// Description is the policy's one-line summary, if it has one.
	Description string `json:"description,omitempty"`
}

var registry = struct {
	sync.RWMutex
	byName  map[string]Policy // canonical names and aliases
	entries map[string]*Info  // canonical name -> info
}{
	byName:  map[string]Policy{},
	entries: map[string]*Info{},
}

// normalize is the single spelling rule of the registry: names are
// compared lower-case with surrounding whitespace removed.
func normalize(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// Register adds a policy under its canonical name plus any aliases.
// Registering a duplicate name or alias panics: collisions are
// programmer errors, caught at init time.
func Register(p Policy, aliases ...string) {
	if p == nil {
		panic("policy: Register(nil)")
	}
	name := normalize(p.Name())
	if name == "" {
		panic("policy: Register with empty name")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[name]; dup {
		panic(fmt.Sprintf("policy: duplicate registration of %q", name))
	}
	registry.byName[name] = p
	info := &Info{Name: name}
	if d, ok := p.(Describer); ok {
		info.Description = d.Describe()
	}
	for _, a := range aliases {
		a = normalize(a)
		if a == "" || a == name {
			continue
		}
		if _, dup := registry.byName[a]; dup {
			panic(fmt.Sprintf("policy: duplicate registration of alias %q", a))
		}
		registry.byName[a] = p
		info.Aliases = append(info.Aliases, a)
	}
	sort.Strings(info.Aliases)
	registry.entries[name] = info
}

// Parse resolves a policy name (canonical or alias, case-insensitive,
// surrounding whitespace ignored) to its registered Policy. Unknown
// names are an error listing every valid name — never a silent
// default.
func Parse(name string) (Policy, error) {
	key := normalize(name)
	registry.RLock()
	p, ok := registry.byName[key]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (valid: %s)", name, strings.Join(Names(), " | "))
	}
	return p, nil
}

// Canonical maps any accepted spelling to the canonical name; unknown
// names return the Parse error.
func Canonical(name string) (string, error) {
	p, err := Parse(name)
	if err != nil {
		return "", err
	}
	return p.Name(), nil
}

// Names returns the canonical names of every registered policy,
// sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.entries))
	for name := range registry.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// List returns every registry entry's metadata, sorted by canonical
// name.
func List() []Info {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Info, 0, len(registry.entries))
	for _, info := range registry.entries {
		cp := *info
		cp.Aliases = append([]string(nil), info.Aliases...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Plan is the one-shot form: resolve name and plan on cx.
func Plan(name string, cx *core.Context, opts Options) (*core.Schedule, error) {
	p, err := Parse(name)
	if err != nil {
		return nil, err
	}
	if err := fault.Default.Hit(SitePlan); err != nil {
		return nil, err
	}
	return p.Plan(cx, opts)
}
