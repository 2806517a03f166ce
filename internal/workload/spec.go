package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"corun/internal/admission"
	"corun/internal/units"
)

// JobSpec is the JSON wire form of one submitted job, as accepted by
// the corund daemon's POST /v1/jobs endpoint:
//
//	{"program": "cfd", "scale": 1.15, "label": "nightly", "deadline_s": 120,
//	 "tenant": "team-a", "priority": "high"}
//
// Program must name one of the calibrated benchmarks. Scale defaults
// to 1.0 (the reference input size); Label defaults to the program
// name; DeadlineS is an optional response-time target in simulated
// seconds (0 = none) that the server reports against but does not
// enforce. Tenant scopes the job to an admission queue (defaults to
// the shared "default" tenant) and Priority is its class — "low",
// "normal" (the default), or "high".
type JobSpec struct {
	Program   string  `json:"program"`
	Scale     float64 `json:"scale,omitempty"`
	Label     string  `json:"label,omitempty"`
	DeadlineS float64 `json:"deadline_s,omitempty"`
	Tenant    string  `json:"tenant,omitempty"`
	Priority  string  `json:"priority,omitempty"`
}

// Normalize fills defaulted fields in place.
func (s *JobSpec) Normalize() {
	s.Program = strings.TrimSpace(s.Program)
	if s.Scale == 0 {
		s.Scale = 1.0
	}
	if s.Label == "" {
		s.Label = s.Program
	}
	s.Tenant = admission.CanonicalTenant(strings.TrimSpace(s.Tenant))
	if c, err := admission.ParseClass(s.Priority); err == nil {
		s.Priority = c.String()
	}
}

// Validate checks the spec against the benchmark table. Call Normalize
// first; a zero Scale is rejected here.
func (s JobSpec) Validate() error {
	if s.Program == "" {
		return fmt.Errorf("workload: job spec has no program")
	}
	if _, err := ByName(s.Program); err != nil {
		return fmt.Errorf("workload: job spec: %w (known: %s)", err, strings.Join(Names(), ", "))
	}
	// JSON cannot carry NaN/Inf, but the Go API can.
	if err := units.CheckPositive("scale", s.Scale); err != nil {
		return fmt.Errorf("workload: job spec has %w", err)
	}
	if err := units.CheckNonNegative("deadline", s.DeadlineS); err != nil {
		return fmt.Errorf("workload: job spec has %w", err)
	}
	if err := admission.ValidateTenant(s.Tenant); err != nil {
		return fmt.Errorf("workload: job spec: %w", err)
	}
	if _, err := admission.ParseClass(s.Priority); err != nil {
		return fmt.Errorf("workload: job spec: %w", err)
	}
	return nil
}

// Instance materializes the spec as a schedulable instance with the
// given batch position and label. The label overrides the spec's
// display label so a server can stamp instances with unique job IDs.
func (s JobSpec) Instance(id int, label string) (*Instance, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	prog, err := ByName(s.Program)
	if err != nil {
		return nil, err
	}
	if label == "" {
		label = s.Label
	}
	return &Instance{ID: id, Prog: prog, Scale: s.Scale, Label: label}, nil
}

// DecodeJobSpecBytes decodes one JSON job spec from an in-memory body,
// rejecting unknown fields so client typos (e.g. "dead_line_s") surface
// as 400s instead of silently dropped options. The returned spec is
// normalized and validated. It does not alias b — decoding copies
// string fields — so callers may reuse the buffer.
func DecodeJobSpecBytes(b []byte) (JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s JobSpec
	if err := dec.Decode(&s); err != nil {
		return JobSpec{}, fmt.Errorf("workload: decoding job spec: %w", err)
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return JobSpec{}, err
	}
	return s, nil
}
