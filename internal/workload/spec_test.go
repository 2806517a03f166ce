package workload

import (
	"math"
	"strings"
	"testing"
)

func TestDecodeJobSpec(t *testing.T) {
	s, err := DecodeJobSpecBytes([]byte(`{"program":"cfd","scale":1.2,"deadline_s":90}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Program != "cfd" || s.Scale != 1.2 || s.Label != "cfd" || s.DeadlineS != 90 {
		t.Fatalf("decoded %+v", s)
	}

	// Defaults, including the admission fields: no tenant means the
	// shared default tenant, no priority means the normal class.
	s, err = DecodeJobSpecBytes([]byte(`{"program":"lud"}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Scale != 1.0 || s.Label != "lud" || s.Tenant != "default" || s.Priority != "normal" {
		t.Fatalf("defaults not applied: %+v", s)
	}

	// Explicit tenant and priority round the decoder intact (priority
	// canonicalized to lowercase).
	s, err = DecodeJobSpecBytes([]byte(`{"program":"cfd","tenant":"team-a","priority":"HIGH"}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Tenant != "team-a" || s.Priority != "high" {
		t.Fatalf("admission fields: %+v", s)
	}

	bad := []string{
		`{"program":"nope"}`,                // unknown benchmark
		`{"program":""}`,                    // empty program
		`{}`,                                // no program
		`{"program":"cfd","scale":-1}`,      // negative scale
		`{"program":"cfd","dead":1}`,        // unknown field
		`{"program":"cfd","deadline_s":-5}`, // negative deadline
		`{"program":"cfd","scale":1e309}`,   // float64 range overflow
		`{"program":"cfd","deadline_s":1e309}`,
		`not json`,
		`{"program":"cfd","tenant":"bad tenant"}`, // space in tenant
		`{"program":"cfd","tenant":"a/b"}`,        // slash in tenant
		`{"program":"cfd","priority":"urgent"}`,   // unknown class
		`{"program":"cfd","priority":3}`,          // wrong type
		`{"program":"cfd","tenant":"` + strings.Repeat("x", 65) + `"}`, // too long
	}
	for _, in := range bad {
		if _, err := DecodeJobSpecBytes([]byte(in)); err == nil {
			t.Errorf("accepted %s", in)
		}
	}
}

// TestJobSpecValidateNonFinite covers the programmatic (non-JSON)
// path: JSON cannot encode NaN or Inf, but a Go caller building a
// JobSpec directly can, and NaN in particular passes a plain `<= 0`
// sign check.
func TestJobSpecValidateNonFinite(t *testing.T) {
	for _, tc := range []JobSpec{
		{Program: "cfd", Scale: math.NaN()},
		{Program: "cfd", Scale: math.Inf(1)},
		{Program: "cfd", Scale: math.Inf(-1)},
		{Program: "cfd", Scale: 1, DeadlineS: math.NaN()},
		{Program: "cfd", Scale: 1, DeadlineS: math.Inf(1)},
		{Program: "cfd", Scale: 1, DeadlineS: math.Inf(-1)},
	} {
		spec := tc
		spec.Normalize()
		if err := spec.Validate(); err == nil {
			t.Errorf("Validate accepted non-finite spec %+v", tc)
		}
		if _, err := tc.Instance(0, "job-000000"); err == nil {
			t.Errorf("Instance accepted non-finite spec %+v", tc)
		}
	}
}

func TestJobSpecInstance(t *testing.T) {
	s := JobSpec{Program: "hotspot", Scale: 1.1, Label: "mine"}
	in, err := s.Instance(3, "job-000003")
	if err != nil {
		t.Fatal(err)
	}
	if in.ID != 3 || in.Label != "job-000003" || in.Scale != 1.1 || in.Prog == nil || in.Prog.Name != "hotspot" {
		t.Fatalf("instance %+v", in)
	}
	// Empty override keeps the spec label.
	in, err = s.Instance(0, "")
	if err != nil {
		t.Fatal(err)
	}
	if in.Label != "mine" {
		t.Fatalf("label %q", in.Label)
	}
	if _, err := (JobSpec{Program: "x", Scale: 1}).Instance(0, ""); err == nil {
		t.Error("unknown program accepted")
	}
}
