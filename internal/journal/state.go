package journal

import "fmt"

// State is the materialized view a journal replays into: the last
// journaled power cap and policy, the scheduling clock, and every
// job's most recent record in journal order. The journal maintains
// its own State mirror (for snapshots); Open hands callers an
// independent clone to restore from.
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
// whose submission record was lost to a truncated tail.
func (st *State) Apply(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	switch r.Type {
	case TypeJobSubmitted, TypeJobState:
		jr := *r.Job
		if i, ok := st.byID[jr.ID]; ok {
			st.Jobs[i] = &jr
		} else {
			st.byID[jr.ID] = len(st.Jobs)
			st.Jobs = append(st.Jobs, &jr)
		}
		if r.SimClockS > st.SimClockS {
			st.SimClockS = r.SimClockS
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

// Clone returns an independent deep copy, detaching the caller from
// the journal's internal replay mirror (which keeps mutating as
// records are appended).
func (st *State) Clone() *State {
	out := &State{
		Policy:    st.Policy,
		SimClockS: st.SimClockS,
		byID:      make(map[string]int, len(st.Jobs)),
		Jobs:      make([]*JobRecord, len(st.Jobs)),
	}
	out.CapWatts = copyFloat(st.CapWatts)
	out.PP0Watts = copyFloat(st.PP0Watts)
	out.PP1Watts = copyFloat(st.PP1Watts)
	for i, jr := range st.Jobs {
		c := *jr
		if jr.DeadlineMet != nil {
			b := *jr.DeadlineMet
			c.DeadlineMet = &b
		}
		out.Jobs[i] = &c
		out.byID[c.ID] = i
	}
	return out
}
