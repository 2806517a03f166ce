package policy_test

import (
	"reflect"
	"strings"
	"testing"

	"corun/internal/model"
	"corun/internal/policy"
)

func TestNamesCoverThePaperFamily(t *testing.T) {
	want := []string{"anneal", "default", "default-cpu", "genetic", "hcs", "hcs+", "optimal", "random"}
	if got := policy.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestParseNormalizesCaseAliasesWhitespace(t *testing.T) {
	cases := map[string]string{
		"hcs":           "hcs",
		"HCS+":          "hcs+",
		"  hcs+ ":       "hcs+",
		"hcsplus":       "hcs+",
		"HCSPlus":       "hcs+",
		"metaheuristic": "genetic",
		" Genetic\t":    "genetic",
		"OPTIMAL":       "optimal",
		"Random":        "random",
		"Default":       "default",
	}
	for in, want := range cases {
		canon, err := policy.Canonical(in)
		if err != nil || canon != want {
			t.Errorf("Canonical(%q) = %q, %v, want %q", in, canon, err, want)
		}
	}
	for _, name := range policy.Names() {
		if canon, err := policy.Canonical(name); err != nil || canon != name {
			t.Errorf("Canonical(%q) = %q, %v; canonical names must round-trip", name, canon, err)
		}
	}
}

func TestParseUnknownListsEveryValidName(t *testing.T) {
	for _, bad := range []string{"", "hcs++", "fifo", "42"} {
		if _, err := policy.Canonical(bad); err == nil {
			t.Errorf("Canonical(%q) succeeded", bad)
		}
	}
	_, err := policy.Canonical("no-such-policy")
	if err == nil {
		t.Fatal("Canonical of an unknown name succeeded")
	}
	for _, name := range policy.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("rejection %q does not list valid policy %q", err, name)
		}
	}
}

func TestListDescribesEveryPolicy(t *testing.T) {
	infos := policy.List()
	if len(infos) != len(policy.Names()) {
		t.Fatalf("List() has %d entries, Names() %d", len(infos), len(policy.Names()))
	}
	aliases := map[string][]string{}
	for _, info := range infos {
		if info.Description == "" {
			t.Errorf("policy %q has no description", info.Name)
		}
		aliases[info.Name] = info.Aliases
	}
	if !reflect.DeepEqual(aliases["hcs+"], []string{"hcsplus"}) {
		t.Errorf("hcs+ aliases = %v, want [hcsplus]", aliases["hcs+"])
	}
	if !reflect.DeepEqual(aliases["default"], []string{"default-gpu"}) {
		t.Errorf("default aliases = %v, want [default-gpu]", aliases["default"])
	}
	if !reflect.DeepEqual(aliases["genetic"], []string{"metaheuristic"}) {
		t.Errorf("genetic aliases = %v, want [metaheuristic]", aliases["genetic"])
	}
}

func TestPlanResolvesThroughRegistry(t *testing.T) {
	batch := testBatch(t)
	cx := contextOver(t, predictorFor(t, batch))
	if _, err := policy.Plan("bogus", cx, policy.Options{}); err == nil {
		t.Error("Plan of an unknown name succeeded")
	}
	plan, err := policy.Plan("hcsplus", cx, policy.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(len(batch)); err != nil {
		t.Fatal(err)
	}
	canonical, err := policy.Plan("hcs+", cx, policy.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, canonical) {
		t.Errorf("alias plan %v differs from canonical-name plan %v", plan, canonical)
	}
}

// TestCachedPredictorMatchesUncachedBitForBit is the acceptance
// criterion of the memoized prediction layer: for every registered
// policy, planning over a model.CachedPredictor must produce exactly
// the schedule and predicted makespan of the uncached predictor.
func TestCachedPredictorMatchesUncachedBitForBit(t *testing.T) {
	batch := testBatch(t)
	pred := predictorFor(t, batch)
	cached, err := model.NewCachedPredictor(pred, testCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range policy.Names() {
		opts := policy.Options{Seed: 7}
		raw := contextOver(t, pred)
		memo := contextOver(t, cached)
		want, err := policy.Plan(name, raw, opts)
		if err != nil {
			t.Fatalf("%s uncached: %v", name, err)
		}
		got, err := policy.Plan(name, memo, opts)
		if err != nil {
			t.Fatalf("%s cached: %v", name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: cached plan %v differs from uncached %v", name, got, want)
		}
		wantT, err := raw.PredictedMakespan(want)
		if err != nil {
			t.Fatal(err)
		}
		gotT, err := memo.PredictedMakespan(got)
		if err != nil {
			t.Fatal(err)
		}
		if wantT != gotT {
			t.Errorf("%s: cached makespan %v differs from uncached %v", name, gotT, wantT)
		}
	}
	// Whether the tables were built here or by an earlier test over the
	// shared characterization, the view must have looked them up.
	if stats := cached.Stats(); stats.Hits+stats.Misses == 0 {
		t.Errorf("pair tables never consulted: %+v", stats)
	}
}
