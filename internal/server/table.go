package server

import (
	"sync"
	"sync/atomic"
)

// tableStripes is the job-table stripe count (power of two). Stripes
// bound lock contention on membership writes; 32 keeps the per-stripe
// maps small without wasting cache lines on a mostly-idle daemon.
const tableStripes = 32

// jobTable is the sharded job table behind GET /v1/jobs/{id} and GET
// /v1/jobs. Membership is striped by a hash of the job ID: inserts
// take one stripe's write lock, lookups its read lock.
// Job *state* never sits behind any lock: each entry holds an
// atomic.Pointer to an immutable Job snapshot, and a state transition
// publishes a fresh snapshot (RCU-style). Readers therefore never
// block on the scheduler, and the scheduler never waits for readers.
type jobTable struct {
	stripes [tableStripes]tableStripe

	// order is the append-only submission order; orderMu guards the
	// append (elements, once written, are immutable).
	orderMu sync.Mutex
	order   []string
}

type tableStripe struct {
	mu sync.RWMutex
	m  map[string]*jobEntry
}

// jobEntry is one job's publication point. The Job it points to is
// immutable; transitions swap the pointer.
type jobEntry struct {
	snap atomic.Pointer[Job]
}

func (t *jobTable) init() { t.reserve(0) }

// reserve sizes the still-empty table for n jobs, so restoring a
// journal's worth of them does not rehash every stripe a dozen times.
func (t *jobTable) reserve(n int) {
	for i := range t.stripes {
		t.stripes[i].m = make(map[string]*jobEntry, n/tableStripes+1)
	}
	t.order = make([]string, 0, n)
}

// stripeFor hashes a job ID onto its stripe (FNV-1a).
func stripeFor(id string) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h & (tableStripes - 1))
}

// insert publishes a new job: membership, then submission order. The
// caller hands over ownership — j must not be mutated after insert.
func (t *jobTable) insert(j *Job) {
	e := &jobEntry{}
	e.snap.Store(j)
	st := &t.stripes[stripeFor(j.ID)]
	st.mu.Lock()
	st.m[j.ID] = e
	st.mu.Unlock()
	t.orderMu.Lock()
	t.order = append(t.order, j.ID)
	t.orderMu.Unlock()
}

// publish swaps in a new immutable snapshot for an existing job.
func (t *jobTable) publish(j *Job) {
	st := &t.stripes[stripeFor(j.ID)]
	st.mu.RLock()
	e := st.m[j.ID]
	st.mu.RUnlock()
	if e != nil {
		e.snap.Store(j)
	}
}

// get returns the job's current immutable snapshot (nil if unknown).
// Callers must not mutate it.
func (t *jobTable) get(id string) *Job {
	st := &t.stripes[stripeFor(id)]
	st.mu.RLock()
	e := st.m[id]
	st.mu.RUnlock()
	if e == nil {
		return nil
	}
	return e.snap.Load()
}

// len is the number of jobs ever inserted.
func (t *jobTable) len() int {
	t.orderMu.Lock()
	defer t.orderMu.Unlock()
	return len(t.order)
}

// ordered returns every job's current snapshot in submission order.
// The order slice is append-only, so the header is captured under
// orderMu and walked lock-free; each job resolves to whatever snapshot
// is current when it is visited.
func (t *jobTable) ordered() []*Job {
	t.orderMu.Lock()
	ids := t.order[:len(t.order):len(t.order)]
	t.orderMu.Unlock()
	out := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j := t.get(id); j != nil {
			out = append(out, j)
		}
	}
	return out
}
