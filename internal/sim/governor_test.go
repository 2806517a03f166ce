package sim

import (
	"math"
	"testing"

	"corun/internal/apu"
	"corun/internal/units"
)

// FuzzBiasedAdjust holds BiasedGovernor.Adjust, for any power, levels,
// plane powers, caps and bias, to the policy of section VI.A: the
// answer's levels stay in range; a plane over its cap lowers only the
// overdrawn devices, one level each; over the package cap no level
// rises; and a raise moves one device one level, the sacrificial one
// only once the preferred one sits at its maximum.
func FuzzBiasedAdjust(f *testing.F) {
	for _, c := range []struct {
		power           float64
		cf, gf          uint8
		pp0, pp1        float64
		cap, cap0, cap1 float64
		cpuBiased       bool
	}{
		{16, 5, 5, 4, 4, 15, 0, 0, false},  // just over the cap
		{16, 5, 5, 4, 4, 15, 0, 0, true},   // the other bias
		{10, 3, 3, 3, 3, 30, 0, 0, false},  // headroom: raise the GPU
		{10, 15, 3, 3, 3, 30, 0, 0, true},  // CPU at its maximum: raise the GPU
		{12, 8, 9, 9, 2, 0, 8, 0, false},   // PP0 overdrawn
		{12, 8, 9, 9, 10, 15, 8, 9, true},  // both planes overdrawn
		{12, 0, 9, 9, 10, 15, 8, 9, false}, // overdrawn CPU at its floor
		{99, 0, 0, 50, 50, 15, 8, 9, false},
		{math.NaN(), 4, 4, math.NaN(), 1, 15, 8, 9, true},
		{math.Inf(1), 15, 9, 1, 1, 10, 0, 0, false},
	} {
		f.Add(c.power, c.cf, c.gf, c.pp0, c.pp1, c.cap, c.cap0, c.cap1, c.cpuBiased)
	}
	cfg := apu.DefaultConfig()
	f.Fuzz(func(t *testing.T, power float64, cf, gf uint8, pp0, pp1, capW, cap0, cap1 float64, cpuBiased bool) {
		g := &BiasedGovernor{Cap: units.Watts(capW), Domains: apu.DomainCaps{PP0: units.Watts(cap0), PP1: units.Watts(cap1)}}
		sacrificial, preferred := apu.CPU, apu.GPU
		if cpuBiased {
			g.Bias, sacrificial, preferred = CPUBiased, apu.GPU, apu.CPU
		}
		top := [apu.NumDevices]int{cfg.MaxFreqIndex(apu.CPU), cfg.MaxFreqIndex(apu.GPU)}
		in := [apu.NumDevices]int{int(cf) % (top[apu.CPU] + 1), int(gf) % (top[apu.GPU] + 1)}
		v := &View{Freq: in, Plane: [apu.NumDevices]units.Watts{units.Watts(pp0), units.Watts(pp1)}}
		planeCap := [apu.NumDevices]float64{cap0, cap1}
		out := g.Adjust(units.Watts(power), v, cfg)

		for d, l := range out {
			if l < 0 || l > top[d] {
				t.Fatalf("%v level %d out of [0,%d] (from %v)", apu.Device(d), l, top[d], in)
			}
		}
		var overdrawn [apu.NumDevices]int // levels an overdrawn plane takes off
		stepped := false
		for d := range in {
			if planeCap[d] > 0 && float64(v.Plane[d]) > planeCap[d] && in[d] > 0 {
				overdrawn[d], stepped = 1, true
			}
		}
		if stepped {
			if want := [apu.NumDevices]int{in[0] - overdrawn[0], in[1] - overdrawn[1]}; out != want {
				t.Fatalf("planes %v over caps %v from %v: got %v, want %v", v.Plane, planeCap, in, out, want)
			}
			return
		}
		if capW > 0 && power > capW {
			for d := range out {
				if out[d] > in[d] {
					t.Fatalf("%v W over the %v W cap raised %v: %v -> %v", power, capW, apu.Device(d), in, out)
				}
			}
			return
		}
		rose := 0
		for d := range out {
			switch {
			case out[d] == in[d]+1:
				rose++
			case out[d] > in[d]+1:
				t.Fatalf("%v raised %d levels at once: %v -> %v", apu.Device(d), out[d]-in[d], in, out)
			}
		}
		switch {
		case rose > 1:
			t.Fatalf("both devices raised at once: %v -> %v", in, out)
		case out[sacrificial] > in[sacrificial] && in[preferred] < top[preferred]:
			t.Fatalf("%v raised the sacrificial %v below the preferred one's maximum: %v -> %v", g.Bias, sacrificial, in, out)
		}
	})
}
