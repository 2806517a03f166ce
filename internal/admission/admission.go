// Package admission owns "who is admitted and who is eligible next"
// for the corund daemon, decoupled from "who co-runs under the cap"
// (the epoch planner's question). It provides tenant identity,
// priority classes, per-tenant queue bounds, and weighted fair
// queueing across tenants, in the Queue the server's epoch loop claims
// work from.
//
// Fairness is virtual-time weighted fair queueing in the start-time
// (SFQ) formulation: every enqueued job is stamped with a start tag
// S = max(V, F_t) where V is the queue's virtual clock and F_t the
// tenant's last finish tag; the tenant's finish tag advances by
// 1/weight per job; selection always pops the backlogged job with the
// smallest start tag (ties broken by arrival order), advancing V to
// that tag. Two backlogged tenants with weights w_a : w_b therefore
// drain in the ratio w_a : w_b, and every tenant with a positive
// effective weight has a bounded wait — a zero-configured weight is
// floored at MinWeight, so even a weight-0 tenant keeps making
// progress instead of starving.
//
// Priority classes are strict across classes and fair within one: a
// queued high-priority job is always eligible before any normal- or
// low-priority job, and WFQ arbitrates between tenants inside each
// class. At the epoch boundary, Preempt lets a freshly landed
// higher-priority job displace the lowest-priority members of an
// already-claimed batch (cooperative preemption: the epoch structure
// provides the boundary; nothing is interrupted mid-run).
//
// A Queue is NOT safe for concurrent use: ordering decisions must be
// atomic with the caller's own bookkeeping (corund's job table), so
// the caller provides the synchronization and the queue stays
// deterministic — a fixed arrival order always yields the same
// selection order.
package admission

import (
	"fmt"
	"sort"
	"time"
)

// Class is a job's priority class. Classes are strict: a queued job
// of a higher class is always eligible before any lower-class job;
// weighted fairness applies within a class, across tenants.
type Class int

// The priority classes, lowest first so ordering compares directly.
const (
	ClassLow Class = iota
	ClassNormal
	ClassHigh
	numClasses
)

// String returns the wire form accepted by ParseClass.
func (c Class) String() string {
	switch c {
	case ClassLow:
		return "low"
	case ClassNormal:
		return "normal"
	case ClassHigh:
		return "high"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Valid reports whether c is one of the defined classes.
func (c Class) Valid() bool { return c >= ClassLow && c < numClasses }

// DefaultTenant is the tenant that owns jobs submitted without one —
// including every job recovered from a journal written before the
// tenant field existed.
const DefaultTenant = "default"

// MinWeight is the starvation floor: the effective WFQ weight of a
// tenant configured with weight 0. The tenant drains at the lowest
// possible rate but is never starved — its virtual finish tags still
// advance finitely, so selection reaches it in bounded time.
const MinWeight = 0.05

// Entry is one admitted-but-unscheduled unit of work. The queue owns
// ordering metadata (arrival sequence and the WFQ start tag, assigned
// at enqueue); the Payload stays opaque — corund stores its *Job.
type Entry struct {
	ID         string
	Tenant     string // canonicalized by the queue ("" -> DefaultTenant)
	Class      Class
	EnqueuedAt time.Time
	Payload    any

	seq   uint64  // arrival order, assigned at enqueue
	start float64 // WFQ start tag, assigned at enqueue
}

// Bound scopes reported by FullError.
const (
	ScopeGlobal = "global"
	ScopeTenant = "tenant"
)

// FullError reports which admission bound rejected a job: the global
// queue bound or the submitting tenant's own bound. Handlers use the
// scope to name the bound in the 429 body and to pick the per-tenant
// Retry-After hint.
type FullError struct {
	Scope  string // ScopeGlobal | ScopeTenant
	Tenant string // the submitting tenant (set for both scopes)
	Limit  int
}

func (e *FullError) Error() string {
	if e.Scope == ScopeTenant {
		return fmt.Sprintf("admission: tenant %q queue full (bound %d)", e.Tenant, e.Limit)
	}
	return fmt.Sprintf("admission: queue full (bound %d)", e.Limit)
}

// Config configures a Queue.
type Config struct {
	// Weights are per-tenant WFQ weights — a tenant's share of epoch
	// slots under contention, and with it the tenant's share of the
	// power-capped node's serving capacity. Tenants absent from the
	// map weigh 1; a configured 0 pins a tenant to the MinWeight
	// starvation floor.
	Weights map[string]float64

	// MaxQueue bounds the total queued jobs across all tenants
	// (0 = unbounded).
	MaxQueue int

	// TenantQueue bounds each single tenant's queued jobs
	// (0 = unbounded). Under heavy multi-tenant traffic this is what
	// keeps one chatty client from filling the global bound and
	// starving everyone else's admission.
	TenantQueue int
}

func (c Config) validate() error {
	if c.MaxQueue < 0 {
		return fmt.Errorf("admission: negative queue bound %d", c.MaxQueue)
	}
	if c.TenantQueue < 0 {
		return fmt.Errorf("admission: negative tenant queue bound %d", c.TenantQueue)
	}
	for name, w := range c.Weights {
		if err := ValidateTenant(name); err != nil || name == "" {
			return fmt.Errorf("admission: weights: bad tenant %q", name)
		}
		if w < 0 || !finite(w) {
			return fmt.Errorf("admission: weights: bad weight %v for %q", w, name)
		}
	}
	return nil
}

// tenant is one tenant's admission state.
type tenant struct {
	name   string
	weight float64 // effective weight (floored at MinWeight)
	finish float64 // last assigned virtual finish tag

	queues   [numClasses][]Entry // FIFO per class
	depth    int
	reserved int

	// Drain-rate EWMA, fed by SelectBatch/Preempt: jobs selected per
	// second of wall time between selections. Backs the per-tenant
	// Retry-After hint on 429s.
	rate       float64
	lastSelect time.Time
}

func (t *tenant) head(c Class) (Entry, bool) {
	if len(t.queues[c]) == 0 {
		return Entry{}, false
	}
	return t.queues[c][0], true
}

// Queue is the seam between admission and epoch planning: the server's
// scheduler loop claims work exclusively through it, while the job
// table, journal, and lifecycle stay with the server. It holds
// per-tenant, per-class FIFO queues arbitrated by virtual-time WFQ.
// Not safe for concurrent use — the caller provides the
// synchronization (corund guards every call with one mutex, keeping
// ordering atomic with its job table).
type Queue struct {
	cfg     Config
	tenants map[string]*tenant
	names   []string // sorted, for deterministic iteration

	vtime    float64 // the WFQ virtual clock
	length   int
	reserved int
	seq      uint64
}

// New validates the configuration and builds an empty queue.
func New(cfg Config) (*Queue, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(cfg.Weights) > 0 {
		w := make(map[string]float64, len(cfg.Weights))
		for k, v := range cfg.Weights {
			w[k] = v
		}
		cfg.Weights = w
	}
	return &Queue{cfg: cfg, tenants: map[string]*tenant{}}, nil
}

func (q *Queue) tenantState(name string) *tenant {
	t, ok := q.tenants[name]
	if !ok {
		w := 1.0
		if cw, configured := q.cfg.Weights[name]; configured {
			w = cw
		}
		if w < MinWeight {
			w = MinWeight
		}
		t = &tenant{name: name, weight: w}
		q.tenants[name] = t
		i := sort.SearchStrings(q.names, name)
		q.names = append(q.names, "")
		copy(q.names[i+1:], q.names[i:])
		q.names[i] = name
	}
	return t
}

// Reserve claims admission capacity for one job of the tenant before
// the caller's write-ahead journal round trip, so concurrent
// submitters cannot overshoot a bound while the lock is released. It
// returns a *FullError naming the bound that is exhausted. Every
// successful Reserve is paired with exactly one AddReserved (the job
// was journaled and enqueues) or Unreserve (the journal write failed
// or admission aborted).
func (q *Queue) Reserve(tenantName string) error {
	tenantName = CanonicalTenant(tenantName)
	t := q.tenantState(tenantName)
	if q.cfg.MaxQueue > 0 && q.length+q.reserved >= q.cfg.MaxQueue {
		return &FullError{Scope: ScopeGlobal, Tenant: tenantName, Limit: q.cfg.MaxQueue}
	}
	if q.cfg.TenantQueue > 0 && t.depth+t.reserved >= q.cfg.TenantQueue {
		return &FullError{Scope: ScopeTenant, Tenant: tenantName, Limit: q.cfg.TenantQueue}
	}
	t.reserved++
	q.reserved++
	return nil
}

// Unreserve releases one reservation.
func (q *Queue) Unreserve(tenantName string) {
	t := q.tenantState(CanonicalTenant(tenantName))
	if t.reserved > 0 {
		t.reserved--
		q.reserved--
	}
}

// AddReserved converts one reservation into a queued entry.
func (q *Queue) AddReserved(e Entry) {
	q.Unreserve(e.Tenant)
	q.enqueue(e)
}

// Add admits one entry, checking bounds: Reserve + AddReserved fused,
// for callers without a journal window between the bound check and
// the enqueue.
func (q *Queue) Add(e Entry) error {
	if err := q.Reserve(e.Tenant); err != nil {
		return err
	}
	q.AddReserved(e)
	return nil
}

// Restore enqueues without a bound check: recovery must re-admit every
// journaled non-terminal job even if bounds were lowered between runs.
// Entries restore in call order, so replaying in record order rebuilds
// each tenant queue in arrival order and the WFQ tags pin the same
// selection order a live daemon would have used.
func (q *Queue) Restore(e Entry) { q.enqueue(e) }

// enqueue stamps the entry's arrival sequence and WFQ start tag and
// appends it to its (tenant, class) FIFO.
func (q *Queue) enqueue(e Entry) {
	e.Tenant = CanonicalTenant(e.Tenant)
	if !e.Class.Valid() {
		e.Class = ClassNormal
	}
	t := q.tenantState(e.Tenant)
	q.seq++
	e.seq = q.seq
	e.start = q.vtime
	if t.finish > e.start {
		e.start = t.finish
	}
	t.finish = e.start + 1/t.weight
	t.queues[e.Class] = append(t.queues[e.Class], e)
	t.depth++
	q.length++
}

// peek returns the tenant whose head entry selection would pop next:
// the highest non-empty class, and within it the minimum start tag
// (ties broken by arrival sequence, so equal tags stay FIFO).
func (q *Queue) peek() (*tenant, Class, bool) {
	for c := numClasses - 1; c >= ClassLow; c-- {
		var best *tenant
		var bestHead Entry
		for _, name := range q.names {
			t := q.tenants[name]
			head, ok := t.head(c)
			if !ok {
				continue
			}
			if best == nil || head.start < bestHead.start ||
				(head.start == bestHead.start && head.seq < bestHead.seq) {
				best, bestHead = t, head
			}
		}
		if best != nil {
			return best, c, true
		}
	}
	return nil, 0, false
}

// pop removes and returns the next entry in selection order,
// advancing the virtual clock to its start tag.
func (q *Queue) pop() (Entry, *tenant, bool) {
	t, c, ok := q.peek()
	if !ok {
		return Entry{}, nil, false
	}
	e := t.queues[c][0]
	t.queues[c] = t.queues[c][1:]
	if len(t.queues[c]) == 0 {
		t.queues[c] = nil // release the drained backing array
	}
	t.depth--
	q.length--
	if e.start > q.vtime {
		q.vtime = e.start
	}
	return e, t, true
}

// requeueFront puts a preempted entry back at the head of its queue,
// keeping its original tags: next epoch it is first among its class.
func (q *Queue) requeueFront(e Entry) {
	t := q.tenantState(e.Tenant)
	t.queues[e.Class] = append([]Entry{e}, t.queues[e.Class]...)
	t.depth++
	q.length++
}

// SelectBatch pops up to max entries in selection order: strict
// priority across classes, virtual-time WFQ across tenants within a
// class, arrival order within a tenant. max <= 0 pops everything.
func (q *Queue) SelectBatch(max int, now time.Time) []Entry {
	var out []Entry
	counts := map[*tenant]int{}
	for max <= 0 || len(out) < max {
		e, t, ok := q.pop()
		if !ok {
			break
		}
		counts[t]++
		out = append(out, e)
	}
	q.observeDrain(counts, now)
	return out
}

// Preempt revisits a claimed batch at the epoch boundary (the end of
// the batching gap). It first fills the batch to max from the queues
// in selection order — arrivals during the gap still coalesce into the
// epoch — and then, with the batch at capacity, swaps in queued
// entries whose class is strictly higher than the lowest class
// present, requeuing each displaced member at the front of its tenant
// queue with its original virtual-time tags (so it is first among its
// class next epoch, not resubmitted). max <= 0 means unbounded:
// everything absorbs, nothing requeues.
func (q *Queue) Preempt(batch []Entry, max int, now time.Time) (kept, requeued []Entry) {
	counts := map[*tenant]int{}
	// Absorb: arrivals during the gap coalesce into the epoch while
	// capacity remains.
	for max <= 0 || len(batch) < max {
		e, t, ok := q.pop()
		if !ok {
			break
		}
		counts[t]++
		batch = append(batch, e)
	}
	// Swap: with the batch at capacity, a strictly higher-priority
	// arrival displaces the lowest-priority member.
	if max > 0 && len(batch) >= max {
		for {
			_, c, ok := q.peek()
			if !ok {
				break
			}
			v := victim(batch)
			if v < 0 || c <= batch[v].Class {
				break
			}
			e, t, _ := q.pop()
			counts[t]++
			requeued = append(requeued, batch[v])
			q.requeueFront(batch[v])
			batch[v] = e
		}
	}
	q.observeDrain(counts, now)
	return batch, requeued
}

// victim picks the batch member preemption displaces first: the
// lowest class, and among equals the most recent arrival (it has
// waited the least).
func victim(batch []Entry) int {
	v := -1
	for i, e := range batch {
		if v < 0 || e.Class < batch[v].Class ||
			(e.Class == batch[v].Class && e.seq > batch[v].seq) {
			v = i
		}
	}
	return v
}

// observeDrain folds one selection round into the per-tenant drain
// EWMAs: n jobs over the wall time since the tenant's last selection.
func (q *Queue) observeDrain(counts map[*tenant]int, now time.Time) {
	for t, n := range counts {
		if !t.lastSelect.IsZero() {
			if dt := now.Sub(t.lastSelect).Seconds(); dt > 0 {
				inst := float64(n) / dt
				if t.rate == 0 {
					t.rate = inst
				} else {
					t.rate = 0.7*t.rate + 0.3*inst
				}
			}
		}
		t.lastSelect = now
	}
}

// Len is the number of queued entries.
func (q *Queue) Len() int { return q.length }

// TenantDepth is one tenant's queued entries (0 for unseen tenants).
func (q *Queue) TenantDepth(tenantName string) int {
	if t, ok := q.tenants[CanonicalTenant(tenantName)]; ok {
		return t.depth
	}
	return 0
}

// EachDepth visits every seen tenant's queue depth (including zeros,
// so gauges for drained tenants reset instead of going stale) without
// allocating — the gauge-refresh path runs it once per claimed batch.
func (q *Queue) EachDepth(fn func(tenant string, depth int)) {
	for name, t := range q.tenants {
		fn(name, t.depth)
	}
}

// DrainRate is one tenant's EWMA drain rate in jobs/sec (0 until the
// tenant has been selected from at least twice).
func (q *Queue) DrainRate(tenantName string) float64 {
	if t, ok := q.tenants[CanonicalTenant(tenantName)]; ok {
		return t.rate
	}
	return 0
}

// OldestWait is the age of the oldest queued entry. Each (tenant,
// class) FIFO is in arrival order — preemption requeues at the front,
// which only moves an older entry forward — so scanning heads is
// enough.
func (q *Queue) OldestWait(now time.Time) time.Duration {
	var oldest time.Time
	for _, t := range q.tenants {
		for c := ClassLow; c < numClasses; c++ {
			if head, ok := t.head(c); ok {
				if oldest.IsZero() || head.EnqueuedAt.Before(oldest) {
					oldest = head.EnqueuedAt
				}
			}
		}
	}
	if oldest.IsZero() {
		return 0
	}
	d := now.Sub(oldest)
	if d < 0 {
		return 0
	}
	return d
}
