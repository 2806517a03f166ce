package core

import (
	"sync"
	"testing"

	"corun/internal/apu"
	"corun/internal/workload"
)

// A single Context may be queried by concurrent planners; run with
// -race to verify the memo tables are safe.
func TestContextConcurrentUse(t *testing.T) {
	batch := workload.Batch8()
	cx, _ := testContext(t, batch, 15)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for c := 0; c < len(batch); c++ {
				for gjob := 0; gjob < len(batch); gjob++ {
					if c == gjob {
						continue
					}
					if _, _, _, ok := cx.ChoosePairFreqs(c, gjob); !ok {
						t.Errorf("pair (%d,%d) infeasible", c, gjob)
						return
					}
					if _, ok := cx.BestSoloFreq(c, 0); !ok {
						t.Errorf("solo %d infeasible", c)
						return
					}
				}
			}
			// Each goroutine also plans a full schedule.
			if _, _, err := cx.HCSPlus(HCSOptions{}, RefineOptions{Seed: seed}); err != nil {
				t.Error(err)
			}
		}(int64(g))
	}
	wg.Wait()
}

// Concurrent queries return identical values to sequential ones (the
// memo never returns partially written entries).
func TestContextConcurrentDeterminism(t *testing.T) {
	batch := workload.Batch8()
	seq, _ := testContext(t, batch, 15)
	par, _ := testContext(t, batch, 15)

	type ans struct {
		fp     apu.FreqPair
		dc, dg float64
	}
	want := map[[2]int]ans{}
	for c := 0; c < len(batch); c++ {
		for g := 0; g < len(batch); g++ {
			fp, dc, dg, _ := seq.ChoosePairFreqs(c, g)
			want[[2]int{c, g}] = ans{fp, dc, dg}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < len(batch); c++ {
				for g := 0; g < len(batch); g++ {
					fp, dc, dg, _ := par.ChoosePairFreqs(c, g)
					exp := want[[2]int{c, g}]
					if fp != exp.fp || dc != exp.dc || dg != exp.dg {
						t.Errorf("pair (%d,%d): concurrent answer diverged", c, g)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
