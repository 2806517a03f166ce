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
// memo never returns partially written entries): every memoized query —
// ChoosePairFreqs with an idle partner (-1) on either side,
// MinPairDegradation and BestSoloFreq on both devices — against a
// context that answered them one at a time.
func TestContextConcurrentDeterminism(t *testing.T) {
	batch := workload.Batch8()
	n := len(batch)
	seq, _ := testContext(t, batch, 15)
	par, _ := testContext(t, batch, 15)

	type ans struct {
		fp     apu.FreqPair
		dc, dg float64
		ok     bool
	}
	type query struct {
		kind string
		a, b int
	}
	ask := func(cx *Context, q query) ans {
		switch q.kind {
		case "pair":
			fp, dc, dg, ok := cx.ChoosePairFreqs(q.a, q.b)
			return ans{fp, dc, dg, ok}
		case "mindeg":
			d, ok := cx.MinPairDegradation(q.a, q.b)
			return ans{dc: d, ok: ok}
		default:
			f, ok := cx.BestSoloFreq(q.a, apu.Device(q.b))
			return ans{fp: apu.FreqPair{CPU: f}, ok: ok}
		}
	}
	var queries []query
	for c := -1; c < n; c++ {
		for g := -1; g < n; g++ {
			queries = append(queries, query{"pair", c, g})
			if c >= 0 && g >= 0 {
				queries = append(queries, query{"mindeg", c, g})
			}
		}
		if c >= 0 {
			queries = append(queries, query{"solo", c, int(apu.CPU)}, query{"solo", c, int(apu.GPU)})
		}
	}
	want := make([]ans, len(queries))
	for i, q := range queries {
		want[i] = ask(seq, q)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts elsewhere in the list, so first writes
			// and reads of one slot race across workers.
			for k := range queries {
				i := (k + w*len(queries)/4) % len(queries)
				if got := ask(par, queries[i]); got != want[i] {
					t.Errorf("%+v: concurrent answer %+v, sequential %+v", queries[i], got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
