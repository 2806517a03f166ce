package model

import (
	"runtime"
	"testing"

	"corun/internal/apu"
	"corun/internal/memsys"
)

// BenchmarkCharacterize is the offline stage every NewSystem, NewSuite
// and corund start without -char pays: the default grid (11 bandwidth
// levels, 3x3 frequency pairs) on the default machine, on GOMAXPROCS
// workers (-cpu sets them).
func BenchmarkCharacterize(b *testing.B) {
	opts := CharacterizeOptions{Cfg: apu.DefaultConfig(), Mem: memsys.Default()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Characterize(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCharacterizeAllocs is a count gate, a ceiling at today's value
// (18.4k) plus 8 %: allocations of one default Characterize on two
// workers. GOMAXPROCS is pinned because how the runs interleave moves
// the simulator's sample-count hint, and with it a few hundred trace
// reallocations. About 7.7 allocations per sim.Run remain: the run's
// state and Result, the power series and its growth, the completions
// list, and the co-run's dispatcher.
func TestCharacterizeAllocs(t *testing.T) {
	const ceiling = 20000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	opts := CharacterizeOptions{Cfg: apu.DefaultConfig(), Mem: memsys.Default()}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Characterize(opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("Characterize allocated %.0f times, ceiling %d", allocs, ceiling)
	} else {
		t.Logf("%.0f allocations per Characterize", allocs)
	}
}
