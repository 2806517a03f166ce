package policy_test

// Fuzz target for registry policy-name parsing — the daemon's
// user-facing string surface (POST /v1/policy bodies, -policy flags).
// The seed corpus covers every canonical name, every alias, spelling
// variants, and near-misses; additional literal seeds live in
// testdata/fuzz/FuzzParse. Properties: Canonical never panics, accepted
// spellings resolve to a registered canonical name and resolve
// identically under the case/whitespace normalization, and rejections
// list every valid policy.

import (
	"strings"
	"testing"

	"corun/internal/policy"
)

func FuzzParse(f *testing.F) {
	for _, info := range policy.List() {
		f.Add(info.Name)
		f.Add(strings.ToUpper(info.Name))
		f.Add("  " + info.Name + "\t")
		for _, a := range info.Aliases {
			f.Add(a)
		}
	}
	f.Add("")
	f.Add("   ")
	f.Add("hcs++")
	f.Add("hcs plus")
	f.Add("default_gpu") // near-miss of the default-gpu alias
	f.Add("Optimal\n")

	f.Fuzz(func(t *testing.T, name string) {
		canon, err := policy.Canonical(name)
		if err != nil {
			if canon != "" {
				t.Fatalf("Canonical(%q) returned a name alongside an error", name)
			}
			for _, valid := range policy.Names() {
				if !strings.Contains(err.Error(), valid) {
					t.Errorf("rejection of %q does not list valid policy %q", name, valid)
				}
			}
			return
		}
		registered := false
		for _, n := range policy.Names() {
			registered = registered || n == canon
		}
		if !registered {
			t.Fatalf("Canonical(%q) resolved to unregistered policy %q", name, canon)
		}
		// Canonical names round-trip.
		if again, err := policy.Canonical(canon); err != nil || again != canon {
			t.Errorf("canonical %q does not round-trip: %q, %v", canon, again, err)
		}
		// Normalization is idempotent over case and whitespace (guard
		// against the rare Unicode spellings whose upper-case form
		// lower-cases differently).
		variant := " " + strings.ToUpper(name) + "\t"
		if strings.ToLower(strings.ToUpper(name)) == strings.ToLower(name) {
			if v, err := policy.Canonical(variant); err != nil || v != canon {
				t.Errorf("Canonical(%q) = %q, %v, want policy %q", variant, v, err, canon)
			}
		}
	})
}
