package journal

import (
	"fmt"
	"slices"
)

// State is the materialized view a journal replays into: the last
// journaled power cap and policy, the scheduling clock and the heatsink
// at that clock, and every
// job's most recent record in journal order. The journal maintains
// its own State mirror (for snapshots); Open hands callers a State of
// their own over the same records, which nobody modifies (see
// Journal.Append).
type State struct {
	// CapWatts is nil until a cap record has been journaled; a
	// pointer, not a zero value, because 0 is a meaningful cap
	// (uncapped). PP0Watts/PP1Watts mirror the per-plane caps of the
	// last cap record (nil = plane unconfigured).
	CapWatts  *float64     `json:"cap_watts,omitempty"`
	PP0Watts  *float64     `json:"pp0_watts,omitempty"`
	PP1Watts  *float64     `json:"pp1_watts,omitempty"`
	Policy    string       `json:"policy,omitempty"`
	SimClockS float64      `json:"sim_clock_s,omitempty"`
	Heat      *Heat        `json:"heat,omitempty"`
	Jobs      []*JobRecord `json:"jobs,omitempty"`

	byID map[string]int // Jobs index, rebuilt on decode
}

// NewState returns an empty state ready for Apply.
func NewState() *State {
	return &State{byID: map[string]int{}}
}

// reindex rebuilds the job index after the struct was populated by
// JSON decoding (the index is derived, never serialized).
func (st *State) reindex() {
	st.byID = make(map[string]int, len(st.Jobs))
	for i, j := range st.Jobs {
		st.byID[j.ID] = i
	}
}

// Apply folds one record into the state. Both submitted and state
// records carry the job's full view, so applying is a plain replace:
// replay is idempotent and tolerates a transition arriving for a job
// whose submission record was lost to a truncated tail. The state
// keeps r.Job itself, not a copy.
func (st *State) Apply(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	switch r.Type {
	case TypeJobSubmitted, TypeJobState:
		if i, ok := st.byID[r.Job.ID]; ok {
			st.Jobs[i] = r.Job
		} else {
			st.byID[r.Job.ID] = len(st.Jobs)
			st.Jobs = append(st.Jobs, r.Job)
		}
		if r.SimClockS > st.SimClockS {
			st.SimClockS = r.SimClockS
			st.Heat = r.Heat
		}
	case TypeCapChanged:
		v := *r.CapWatts
		st.CapWatts = &v
		// Each cap record carries the full cap state, so the planes
		// replace too: a record without them clears any prior caps.
		st.PP0Watts = copyFloat(r.PP0Watts)
		st.PP1Watts = copyFloat(r.PP1Watts)
	case TypePolicyChanged:
		st.Policy = r.Policy
	default:
		return fmt.Errorf("journal: unknown record type %q", r.Type)
	}
	return nil
}

func copyFloat(p *float64) *float64 {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

// Job returns the most recent record for one job ID.
func (st *State) Job(id string) (JobRecord, bool) {
	i, ok := st.byID[id]
	if !ok {
		return JobRecord{}, false
	}
	return *st.Jobs[i], true
}

// share returns a State of its own — fields, Jobs slice, index —
// over the same job records: the journal's mirror goes on applying
// records, and the caller's view of what was recovered stays as it
// was.
func (st *State) share() *State {
	out := *st
	out.Jobs = slices.Clone(st.Jobs)
	out.reindex() // cheaper than maps.Clone
	return &out
}
