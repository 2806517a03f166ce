// Package fault is the daemon's resilience toolkit: a deterministic
// failpoint registry for injecting failures at named sites in the hot
// paths (journal appends and fsyncs, admission, epoch planning), plus
// the machinery that turns failures into policy rather than crashes —
// bounded retry with jittered exponential backoff and a circuit
// breaker that trips into a degraded mode.
//
// Failpoints are the testing substrate: production code calls
// Registry.Hit("journal/fsync") at each site, which costs one atomic
// load while the registry is disarmed. Tests (or the corund
// -fault-spec flag) arm sites with schedules — "fail every 3rd hit",
// "add 10ms of latency with probability 0.5 under seed 42" — that are
// fully deterministic for a given seed, so an induced failure storm
// replays identically run after run.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is what an armed failpoint does when its schedule fires.
type Kind string

// The injection kinds. KindError makes Hit return an *Error;
// KindLatency makes Hit sleep for the rule's delay and return nil;
// KindPanic makes Hit panic with an *Error (for crash testing —
// recovery paths must survive a process that dies mid-operation).
// KindDrop is KindError that also loses the site's unsynced writes
// (Drops reports it): at journal/fsync the journal cuts its log back
// to the last durable offset before it sees the error, which is what
// a kernel that dropped the dirty pages of a failed fsync leaves
// behind. A site with nothing unsynced treats it as KindError.
const (
	KindError   Kind = "error"
	KindLatency Kind = "latency"
	KindPanic   Kind = "panic"
	KindDrop    Kind = "drop"
)

// Error is an injected failure. Callers distinguish injected errors
// from organic ones with IsInjected.
type Error struct {
	// Site is the failpoint that fired.
	Site string
	// Msg is the rule's message, if it set one.
	Msg string
	// Drop marks a KindDrop injection.
	Drop bool
}

// Error implements error.
func (e *Error) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("fault: injected at %s: %s", e.Site, e.Msg)
	}
	return fmt.Sprintf("fault: injected at %s", e.Site)
}

// IsInjected reports whether err is (or wraps) an injected fault.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// Drops reports whether err is (or wraps) a KindDrop injection: the
// failure lost the site's unsynced writes as well.
func Drops(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Drop
}

// Rule arms one site with a deterministic schedule. The zero schedule
// fires on every hit; Every/After/Times/P narrow it.
type Rule struct {
	// Site names the failpoint (e.g. "journal/fsync").
	Site string
	// Kind is the injected behaviour; required.
	Kind Kind
	// Delay is the injected latency; required for KindLatency.
	Delay time.Duration
	// Msg overrides the injected error message.
	Msg string

	// Every fires the rule on every Nth eligible hit (0 or 1 = every
	// hit).
	Every uint64
	// After skips the first N hits before the schedule starts.
	After uint64
	// Times bounds how many injections the rule performs; 0 is
	// unlimited. An exhausted rule stops firing but keeps counting
	// hits.
	Times uint64
	// P gates each scheduled firing on a seeded coin flip with this
	// probability; 0 (or >= 1) disables the gate.
	P float64
	// Seed seeds the rule's private PRNG for the P gate; rules with
	// the same seed replay identically.
	Seed int64
}

// Validate checks the rule.
func (r Rule) Validate() error {
	if r.Site == "" {
		return errors.New("fault: rule has no site")
	}
	switch r.Kind {
	case KindError, KindPanic, KindDrop:
	case KindLatency:
		if r.Delay <= 0 {
			return fmt.Errorf("fault: latency rule at %s needs a positive delay", r.Site)
		}
	default:
		return fmt.Errorf("fault: unknown kind %q at %s (valid: %s | %s | %s | %s)",
			r.Kind, r.Site, KindError, KindLatency, KindPanic, KindDrop)
	}
	if r.P < 0 || r.P > 1 {
		return fmt.Errorf("fault: probability %v at %s outside [0,1]", r.P, r.Site)
	}
	return nil
}

// Event reports one Hit at an armed site to a subscriber.
type Event struct {
	// Site is the failpoint hit.
	Site string
	// Injected reports whether the rule fired on this hit.
	Injected bool
}

// SiteStats is one armed site's counters.
type SiteStats struct {
	// Site is the failpoint name.
	Site string `json:"site"`
	// Hits counts Hit calls at the site while armed.
	Hits uint64 `json:"hits"`
	// Injected counts hits on which the rule fired.
	Injected uint64 `json:"injected"`
	// Exhausted reports whether the rule hit its Times bound.
	Exhausted bool `json:"exhausted"`
}

// site is one armed failpoint's runtime state.
type site struct {
	rule      Rule
	hits      uint64
	injected  uint64
	exhausted bool
	rng       *rand.Rand
}

// Registry holds armed failpoints. All methods are safe for
// concurrent use; a disarmed registry's Hit costs one atomic load.
type Registry struct {
	armed atomic.Int32 // number of armed sites, the fast-path gate
	mu    sync.Mutex
	sites map[string]*site
	subs  []func(Event)
	sleep func(time.Duration) // test seam for latency injection
}

// Default is the process-wide registry: production call sites that
// have no registry threaded to them hit this one, and the corund
// -fault-spec flag arms it.
var Default = NewRegistry()

// NewRegistry creates an empty (disarmed) registry.
func NewRegistry() *Registry {
	return &Registry{sites: map[string]*site{}, sleep: time.Sleep}
}

// Arm installs the rules, replacing any existing rule at the same
// site. Invalid rules leave the registry unchanged.
func (r *Registry) Arm(rules ...Rule) error {
	for _, rule := range rules {
		if err := rule.Validate(); err != nil {
			return err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rule := range rules {
		if _, replaced := r.sites[rule.Site]; !replaced {
			r.armed.Add(1)
		}
		r.sites[rule.Site] = &site{rule: rule, rng: rand.New(rand.NewSource(rule.Seed))}
	}
	return nil
}

// ArmSpec parses and arms a semicolon-separated spec string; see
// ParseSpec for the grammar.
func (r *Registry) ArmSpec(spec string) error {
	rules, err := ParseSpec(spec)
	if err != nil {
		return err
	}
	return r.Arm(rules...)
}

// Disarm removes the named sites, or every site when called with
// none. Counters for removed sites are discarded.
func (r *Registry) Disarm(sites ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(sites) == 0 {
		r.armed.Add(-int32(len(r.sites)))
		r.sites = map[string]*site{}
		return
	}
	for _, s := range sites {
		if _, ok := r.sites[s]; ok {
			delete(r.sites, s)
			r.armed.Add(-1)
		}
	}
}

// Subscribe registers an observer called on every hit at an armed
// site. Observers run on the hitting goroutine and must be cheap;
// there is no unsubscribe.
func (r *Registry) Subscribe(fn func(Event)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.subs = append(r.subs, fn)
}

// Stats snapshots every armed site's counters, sorted by site name.
func (r *Registry) Stats() []SiteStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SiteStats, 0, len(r.sites))
	for name, s := range r.sites {
		out = append(out, SiteStats{Site: name, Hits: s.hits, Injected: s.injected, Exhausted: s.exhausted})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Hit is the production call at a failpoint site: a no-op returning
// nil unless the site is armed and its schedule fires, in which case
// it returns an injected error, sleeps, or panics per the rule's
// kind. Latency injection sleeps outside the registry lock.
func (r *Registry) Hit(siteName string) error {
	if r.armed.Load() == 0 {
		return nil
	}
	r.mu.Lock()
	s, ok := r.sites[siteName]
	if !ok {
		r.mu.Unlock()
		return nil
	}
	s.hits++
	fire := false
	if !s.exhausted && s.hits > s.rule.After {
		k := s.hits - s.rule.After
		if s.rule.Every <= 1 || k%s.rule.Every == 0 {
			if s.rule.P <= 0 || s.rule.P >= 1 || s.rng.Float64() < s.rule.P {
				fire = true
			}
		}
	}
	if fire {
		s.injected++
		if s.rule.Times > 0 && s.injected >= s.rule.Times {
			s.exhausted = true
		}
	}
	rule := s.rule
	subs := r.subs
	sleep := r.sleep
	r.mu.Unlock()

	for _, fn := range subs {
		fn(Event{Site: siteName, Injected: fire})
	}
	if !fire {
		return nil
	}
	switch rule.Kind {
	case KindLatency:
		sleep(rule.Delay)
		return nil
	case KindPanic:
		panic(&Error{Site: siteName, Msg: rule.Msg})
	default:
		return &Error{Site: siteName, Msg: rule.Msg, Drop: rule.Kind == KindDrop}
	}
}
