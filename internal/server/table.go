package server

import (
	"sync"
	"sync/atomic"
)

// jobTable is the job table behind GET /v1/jobs/{id} and GET /v1/jobs.
// One RWMutex guards membership: a map from job ID to entry and an
// append-only slice of the same entries in submission order. Inserts
// take the write lock, lookups the read lock.
// Job *state* never sits behind the lock: each entry holds an
// atomic.Pointer to an immutable Job snapshot, and a state transition
// publishes a fresh snapshot (RCU-style). Readers therefore never
// block on the scheduler, and the scheduler never waits for readers.
type jobTable struct {
	mu    sync.RWMutex
	byID  map[string]*jobEntry
	order []*jobEntry
}

// jobEntry is one job's publication point. The Job it points to is
// immutable; transitions swap the pointer.
type jobEntry struct {
	snap atomic.Pointer[Job]
}

// reserve sizes the still-empty table for n jobs, so restoring a
// journal's worth of them does not rehash the map a dozen times.
func (t *jobTable) reserve(n int) {
	t.byID = make(map[string]*jobEntry, n)
	t.order = make([]*jobEntry, 0, n)
}

// insert publishes a new job: membership and submission order at once.
// The caller hands over ownership — j must not be mutated after insert.
func (t *jobTable) insert(j *Job) {
	e := &jobEntry{}
	e.snap.Store(j)
	t.mu.Lock()
	t.byID[j.ID] = e
	t.order = append(t.order, e)
	t.mu.Unlock()
}

// entry returns the job's publication point (nil if unknown).
func (t *jobTable) entry(id string) *jobEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.byID[id]
}

// publish swaps in a new immutable snapshot for an existing job.
func (t *jobTable) publish(j *Job) {
	if e := t.entry(j.ID); e != nil {
		e.snap.Store(j)
	}
}

// get returns the job's current immutable snapshot (nil if unknown).
// Callers must not mutate it.
func (t *jobTable) get(id string) *Job {
	if e := t.entry(id); e != nil {
		return e.snap.Load()
	}
	return nil
}

// ordered returns every job's current snapshot in submission order.
// The order slice is append-only, so its header is captured under the
// read lock and walked lock-free; each job resolves to whatever
// snapshot is current when it is visited.
func (t *jobTable) ordered() []*Job {
	t.mu.RLock()
	entries := t.order
	t.mu.RUnlock()
	out := make([]*Job, len(entries))
	for i, e := range entries {
		out[i] = e.snap.Load()
	}
	return out
}
