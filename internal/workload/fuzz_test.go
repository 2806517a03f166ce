package workload

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// FuzzJobSpecJSON throws arbitrary bytes at the daemon's job-submission
// decoder. DecodeJobSpecBytes decodes the body of every POST /v1/jobs,
// on a node and on the fleet coordinator alike, so the contract under fuzz is: never panic, never accept a spec that fails
// its own validation, and never reject a spec that round-trips from an
// accepted one. The seeds live in testdata/jobspec-seeds.json, grouped
// by what they probe; the fleet coordinator's forwarding test replays
// them as well.
func FuzzJobSpecJSON(f *testing.F) {
	var groups []struct {
		Bodies []string `json:"bodies"`
	}
	raw, err := os.ReadFile("testdata/jobspec-seeds.json")
	if err == nil {
		err = json.Unmarshal(raw, &groups)
	}
	if err != nil {
		f.Fatalf("reading the seed corpus: %v", err)
	}
	for _, g := range groups {
		for _, body := range g.Bodies {
			f.Add([]byte(body))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeJobSpecBytes(data)
		if err != nil {
			if spec != (JobSpec{}) {
				t.Fatalf("error %v returned alongside non-zero spec %+v", err, spec)
			}
			return
		}
		// Accepted specs are normalized and pass validation as-is.
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted spec %+v fails validation: %v", spec, err)
		}
		if spec.Program != strings.TrimSpace(spec.Program) {
			t.Fatalf("accepted spec not normalized: %q", spec.Program)
		}
		if spec.Scale <= 0 || math.IsNaN(spec.Scale) || math.IsInf(spec.Scale, 0) {
			t.Fatalf("accepted spec has unusable scale %v", spec.Scale)
		}
		if spec.DeadlineS < 0 || math.IsNaN(spec.DeadlineS) {
			t.Fatalf("accepted spec has unusable deadline %v", spec.DeadlineS)
		}
		// An accepted spec materializes into an instance.
		if _, err := spec.Instance(0, "job-000000"); err != nil {
			t.Fatalf("accepted spec %+v cannot instantiate: %v", spec, err)
		}
		// Round trip: re-encoding an accepted spec is accepted again
		// and decodes to the same value.
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("re-encoding accepted spec %+v: %v", spec, err)
		}
		again, err := DecodeJobSpecBytes(b)
		if err != nil {
			t.Fatalf("round trip of %s rejected: %v", b, err)
		}
		if again != spec {
			t.Fatalf("round trip changed the spec: %+v -> %+v", spec, again)
		}
	})
}
