package core

import (
	"fmt"
	"math/rand"
	"testing"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/profile"
	"corun/internal/units"
	"corun/internal/workload"
)

// limitCases are the constraint shapes a feasible list is keyed on:
// package cap, each plane alone, no cap at all, and a coarser
// traversal.
var limitCases = []struct {
	name    string
	cap     units.Watts
	domains apu.DomainCaps
	stride  int
}{
	{"cap15", 15, apu.DomainCaps{}, 1},
	{"pp0-only", 0, apu.DomainCaps{PP0: 8}, 1},
	{"pp1-only", 0, apu.DomainCaps{PP1: 9}, 1},
	{"uncapped", 0, apu.DomainCaps{}, 1},
	{"stride2", 15, apu.DomainCaps{}, 2},
}

// TestFeasiblePointsAreScaleFree pins what the cross-epoch feasible
// lists rely on: whether an operating point fits the caps depends on
// the two programs, never on their input scales. Seeded random batches
// drawn from the benchmark set at random scales are traversed twice
// under every limit shape — once through the predictor, which keeps
// lists in the characterization, once through the same model seen as
// an oracle without tables, which keeps nothing — and must agree point
// for point and in order for every ordered pair. A second batch of the
// same programs at other scales must find every list resident.
func TestFeasiblePointsAreScaleFree(t *testing.T) {
	cfg, mem := apu.DefaultConfig(), memsys.Default()
	char, err := model.Characterize(model.CharacterizeOptions{Cfg: cfg, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(28))
	names := workload.Names()
	for trial := 0; trial < 3; trial++ {
		progs := make([]string, 6)
		for k := range progs {
			progs[k] = names[rng.Intn(len(names))]
		}
		for _, lc := range limitCases {
			pruned, kept := false, false
			for epoch := 0; epoch < 2; epoch++ {
				pred := scaledPredictor(t, char, cfg, mem, progs, rng)
				cached, raw := limitedContext(t, pred, lc.cap, lc.domains, lc.stride), limitedContext(t, interpolated{pred, pred}, lc.cap, lc.domains, lc.stride)
				full := len(raw.freqLevels(apu.CPU)) * len(raw.freqLevels(apu.GPU))
				what := fmt.Sprintf("trial %d %s epoch %d %v", trial, lc.name, epoch, progs)
				for c := range progs {
					for g := range progs {
						_, resident := pred.Feasible(c, g, lc.cap, lc.domains, lc.stride)
						if epoch > 0 && !resident {
							t.Errorf("%s: pair (%d,%d) missed the lists the first batch kept", what, c, g)
						}
						got, want := cached.feasible(c, g), raw.feasible(c, g)
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%s: pair (%d,%d) kept %v, traversal finds %v", what, c, g, got, want)
						}
						pruned = pruned || len(want) < full
						kept = kept || len(want) > 0
					}
				}
			}
			if capped := lc.cap > 0 || lc.domains.Any(); capped != pruned || !kept {
				t.Errorf("trial %d %s: capped %v but pruned %v, kept %v — the case checks nothing", trial, lc.name, capped, pruned, kept)
			}
		}
	}
}

// scaledPredictor profiles the named programs at seeded random input
// scales in [0.5, 2).
func scaledPredictor(t *testing.T, char *model.Characterization, cfg *apu.Config, mem *memsys.Model, progs []string, rng *rand.Rand) *model.Predictor {
	t.Helper()
	batch := make([]*workload.Instance, len(progs))
	for i, name := range progs {
		prog, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = &workload.Instance{ID: i, Prog: prog, Scale: 0.5 + 1.5*rng.Float64(), Label: name}
	}
	prof, err := profile.Collect(cfg, mem, batch)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := model.NewPredictor(char, prof)
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

// interpolated is the predictor without its tables: it answers
// Degradation by the per-query interpolation times the calibrated
// factor, and offers the planner nothing beyond Oracle's five methods,
// so a context over it takes the per-point path the ground-truth oracle
// takes.
type interpolated struct {
	Oracle
	p *model.Predictor
}

func (o interpolated) Degradation(i int, dev apu.Device, f, j, g int) float64 {
	return o.p.Interpolate(i, dev, f, j, g) * o.p.Scale(i, dev)
}

func limitedContext(t testing.TB, o Oracle, cap units.Watts, domains apu.DomainCaps, stride int) *Context {
	t.Helper()
	cx, err := NewContext(o, apu.DefaultConfig(), cap)
	if err != nil {
		t.Fatal(err)
	}
	cx.Domains, cx.FreqStride = domains, stride
	return cx
}

// TestClassListsAreTheTraversal pins the feasibility-class key: over
// every program pair of the Fig. 11 batch, under package caps drawn
// from [P_sus, 16] W at a 45 °C trip point (9.375 W) alone and beside
// each plane cap, the list the predictor's cache answers — by the exact
// cap, or by a class an earlier cap reached — is the list a fresh
// traversal at that cap finds, point for point and in order. Most caps
// must be answered by class.
func TestClassListsAreTheTraversal(t *testing.T) {
	cfg, mem := apu.DefaultConfig(), memsys.Default()
	char, err := model.Characterize(model.CharacterizeOptions{Cfg: cfg, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	batch := workload.Batch16()
	prof, err := profile.Collect(cfg, mem, batch)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := model.NewPredictor(char, prof)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(46))
	byClass, queries := 0, 0
	for _, planes := range []apu.DomainCaps{{}, {PP0: 8}, {PP1: 9}} {
		for k := 0; k < 40; k++ {
			cap := units.Watts(9.375 + (16-9.375)*rng.Float64())
			cached, raw := limitedContext(t, pred, cap, planes, 1), limitedContext(t, interpolated{pred, pred}, cap, planes, 1)
			for c := range batch {
				for g := range batch {
					_, resident := pred.Feasible(c, g, cap, planes, 1)
					got, want := cached.feasible(c, g), raw.feasible(c, g)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("cap %v %+v: pair (%d,%d) kept %v, traversal finds %v", cap, planes, c, g, got, want)
					}
					queries++
					if resident {
						byClass++
					}
				}
			}
		}
	}
	// A new continuous cap is never resident by its exact value, so every
	// resident answer came through the class key.
	if byClass < queries/2 {
		t.Errorf("%d of %d queries answered by class", byClass, queries)
	}
}
