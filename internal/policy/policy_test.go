package policy_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"corun/internal/apu"
	"corun/internal/core"
	"corun/internal/model"
	"corun/internal/policy"
	"corun/internal/units"
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

// TestTablePlansEqualPerPointPlans holds the pair tables to the model
// they are filled from: for every registered policy, under every shape
// of limit (package cap, each plane alone, the package cap given as a
// domain, none), over the predictor and over its calibrated form,
// planning through the tables must produce exactly the schedule and the
// predicted makespan bits that planning point by point over the
// per-query interpolation does — core's path for an oracle without
// tables, the ground-truth oracle's.
func TestTablePlansEqualPerPointPlans(t *testing.T) {
	batch := testBatch(t)
	pred := predictorFor(t, batch)
	cal, err := model.NewCalibratedPredictor(pred, batch)
	if err != nil {
		t.Fatal(err)
	}
	limits := []struct {
		name    string
		cap     units.Watts
		domains apu.DomainCaps
	}{
		{"cap15", 15, apu.DomainCaps{}},
		{"pp0-only", 0, apu.DomainCaps{PP0: 8}},
		{"pp1-only", 0, apu.DomainCaps{PP1: 9}},
		{"package-domain", 0, apu.DomainCaps{Package: 15}},
		{"uncapped", 0, apu.DomainCaps{}},
	}
	cfg := testCfg(t)
	limited := func(o core.Oracle, cap units.Watts, domains apu.DomainCaps) *core.Context {
		cx, err := core.NewContext(o, cfg, cap)
		if err != nil {
			t.Fatal(err)
		}
		cx.Domains = domains
		return cx
	}
	for _, p := range []struct {
		name string
		pred *model.Predictor
	}{{"predictor", pred}, {"calibrated", cal}} {
		for _, lc := range limits {
			for _, name := range policy.Names() {
				what := fmt.Sprintf("%s/%s/%s", p.name, lc.name, name)
				opts := policy.Options{Seed: 7}
				tables, points := limited(p.pred, lc.cap, lc.domains), limited(perPoint(p.pred), lc.cap, lc.domains)
				want, err := policy.Plan(name, points, opts)
				if err != nil {
					t.Fatalf("%s per point: %v", what, err)
				}
				got, err := policy.Plan(name, tables, opts)
				if err != nil {
					t.Fatalf("%s tables: %v", what, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: plan %v through the tables, %v point by point", what, got, want)
				}
				wantT, err := points.PredictedMakespan(want)
				if err != nil {
					t.Fatal(err)
				}
				gotT, err := tables.PredictedMakespan(got)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(float64(wantT)) != math.Float64bits(float64(gotT)) {
					t.Errorf("%s: makespan %v through the tables, %v point by point", what, gotT, wantT)
				}
			}
		}
		// Whether the tables were built here or by an earlier test over
		// the shared characterization, the predictor must have looked
		// them up.
		if stats := p.pred.Stats(); stats.Hits+stats.Misses == 0 {
			t.Errorf("%s: pair tables never consulted: %+v", p.name, stats)
		}
	}
}
