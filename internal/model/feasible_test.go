package model

import (
	"math/rand"
	"testing"

	"corun/internal/apu"
	"corun/internal/core"
	"corun/internal/memsys"
	"corun/internal/units"
	"corun/internal/workload"
)

// The fleet pushes a fresh, continuous cap to every node at each
// rebalance, and the heatsink's budget cap moves every epoch, so every
// epoch can bring a package cap no list is kept under. A thousand
// distinct package caps planned over one characterization traverse a
// pair only under a feasibility class no earlier cap reached; a
// thousand distinct PP1 caps, which key their lists exactly, keep the
// lists under their bound — they are dropped whole there. No cap
// touches the pair tables.
func TestFeasibleListsBoundedUnderCapChurn(t *testing.T) {
	cfg, mem := apu.DefaultConfig(), memsys.Default()
	c := defaultChar(t, cfg, mem)
	batch := workload.Batch8()
	pred := predictorOver(t, c, cfg, mem, batch)
	sameEverywhere(t, "warm-up", pred, cfg) // every table resident
	tables := c.PairCacheStats().Tables
	n := len(batch)
	rng := rand.New(rand.NewSource(28))
	type pairClass struct {
		pair int
		lo   float64
	}
	classes := map[pairClass]bool{} // the (pair, class) the caps reached
	dropped := false
	for k := 0; k < 2000; k++ {
		cap, planes := units.Watts(12+6*rng.Float64()), apu.DomainCaps{}
		if k >= 1000 {
			cap, planes = 15, apu.DomainCaps{PP1: units.Watts(6 + 4*rng.Float64())}
		}
		cx, err := core.NewContext(pred, cfg, cap)
		if err != nil {
			t.Fatal(err)
		}
		cx.Domains = planes
		before := c.PairCacheStats().FeasibleLists
		if _, err := cx.HCS(core.HCSOptions{}); err != nil {
			t.Fatalf("caps %v %+v: %v", cap, planes, err)
		}
		s := c.PairCacheStats()
		if s.FeasibleLists > maxFeasibleLists {
			t.Fatalf("caps %d: %d feasible lists resident, bound %d", k, s.FeasibleLists, maxFeasibleLists)
		}
		if s.Tables != tables {
			t.Fatalf("caps %d: pair tables %d -> %d; no cap should touch them", k, tables, s.Tables)
		}
		if k < 1000 {
			for p := 0; p < n*n; p++ {
				lo, _ := pred.listKey(p/n, p%n, planes, 1).classOf(cap)
				classes[pairClass{p, lo}] = true
			}
			if s.FeasibleLists < before || s.Traversals > uint64(len(classes)) {
				t.Fatalf("cap %d: %d lists (%d before) from %d traversals, for %d pair classes reached",
					k, s.FeasibleLists, before, s.Traversals, len(classes))
			}
		}
		dropped = dropped || s.FeasibleLists < before
	}
	if !dropped {
		t.Error("a thousand plane caps never reached the bound")
	}
}
