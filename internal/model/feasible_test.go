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
// rebalance, so every epoch can bring a cap no list is kept under. A
// thousand distinct caps planned over one characterization keep the
// feasible lists under their bound — they are dropped whole there —
// while the pair tables, which no cap changes, stay as they were.
func TestFeasibleListsBoundedUnderCapChurn(t *testing.T) {
	cfg, mem := apu.DefaultConfig(), memsys.Default()
	c := defaultChar(t, cfg, mem)
	batch := workload.Batch8()
	pred := predictorOver(t, c, cfg, mem, batch)
	sameEverywhere(t, "warm-up", viewOver(t, pred, cfg), pred, cfg) // every table resident
	tables := c.PairCacheStats().Tables
	rng := rand.New(rand.NewSource(28))
	dropped := false
	for k := 0; k < 1000; k++ {
		cx, err := core.NewContext(viewOver(t, pred, cfg), cfg, units.Watts(12+6*rng.Float64()))
		if err != nil {
			t.Fatal(err)
		}
		before := c.PairCacheStats().FeasibleLists
		if _, err := cx.HCS(core.HCSOptions{}); err != nil {
			t.Fatalf("cap %v: %v", cx.Cap, err)
		}
		s := c.PairCacheStats()
		if s.FeasibleLists > maxFeasibleLists {
			t.Fatalf("cap %d: %d feasible lists resident, bound %d", k, s.FeasibleLists, maxFeasibleLists)
		}
		dropped = dropped || s.FeasibleLists < before
		if s.Tables != tables {
			t.Fatalf("cap %d: pair tables %d -> %d; no cap should touch them", k, tables, s.Tables)
		}
	}
	if !dropped {
		t.Error("a thousand caps never reached the bound")
	}
}
