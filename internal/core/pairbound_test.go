package core

import (
	"math"
	"reflect"
	"testing"

	"corun/internal/apu"
	"corun/internal/units"
	"corun/internal/workload"
)

// The bound fuzz runs on a machine of 4 CPU and 3 GPU levels, so a
// handful of bytes spells every degradation of a small batch.
const boundNC, boundNG = 4, 3

// Each fuzz byte picks one value from an alphabet; index 0 is the
// neutral value, and repeats make ties likely.
var (
	degAlpha   = [16]float64{0, 0.05, 0.1, 0.25, 0.5, 1, 2, 3, 0, 0.1, 0.5, -0.05, -0.5, math.NaN(), math.Inf(1), 0}
	timeAlpha  = [16]float64{1, 2, 3, 5, 8, 0.5, 1.5, 13, 1, 2, 3, 5, 0, -1, math.NaN(), math.Inf(1)}
	scaleAlpha = [8]float64{1, 0.5, 2, 0, -1, math.NaN(), math.Inf(1), 1.15}
)

// Alphabet indices the hand-built seeds use.
const (
	degHalf, degTwo, degNeg, degNaN, degInf = 4, 6, 12, 13, 14
	timeFive, timeNeg                       = 3, 13
	scaleNeg                                = 4
)

// boundOracle is an oracle read from fuzz bytes. The first byte holds
// the flags: bit 0 a third job, bit 1 the pairTables view (boundTables),
// bit 2 a 15 W cap, bit 3 traversal stride 2. Six scale bytes follow
// (job i on device d at 1+2i+d), then each job's standalone time by
// device and level, then each ordered pair's degradations by side and
// level pair, then each pair's power by level pair. Bytes past the end
// read 0.
type boundOracle struct {
	data   []byte
	n      int
	times  int // offset of the first time byte
	degs   int
	powers int
}

func newBoundOracle(data []byte) *boundOracle {
	o := &boundOracle{data: data, n: 2 + int(at(data, 0)&1)}
	o.times = 7
	o.degs = o.times + o.n*(boundNC+boundNG)
	o.powers = o.degs + o.n*o.n*2*boundNC*boundNG
	return o
}

func at(data []byte, k int) byte {
	if k < len(data) {
		return data[k]
	}
	return 0
}

func (o *boundOracle) byteAt(k int) byte { return at(o.data, k) }

func (o *boundOracle) NumJobs() int { return o.n }

func (o *boundOracle) StandaloneTime(i int, d apu.Device, f int) units.Seconds {
	k := o.times + i*(boundNC+boundNG) + f
	if d == apu.GPU {
		k += boundNC
	}
	return units.Seconds(timeAlpha[o.byteAt(k)%16])
}

// raw is the degradation of the side-d job of CPU job c beside GPU job
// g at levels (fc, fg).
func (o *boundOracle) raw(c, g int, d apu.Device, fc, fg int) float64 {
	k := o.degs + ((c*o.n+g)*2+int(d))*boundNC*boundNG + fc*boundNG + fg
	return degAlpha[o.byteAt(k)%16]
}

func (o *boundOracle) Degradation(i int, dev apu.Device, f, j, g int) float64 {
	if dev == apu.CPU {
		return o.raw(i, j, apu.CPU, f, g)
	}
	return o.raw(j, i, apu.GPU, g, f)
}

func (o *boundOracle) CoRunPower(i, f, j, g int) units.Watts {
	if i < 0 || j < 0 {
		return units.Watts(4 + f + g) // a solo run always fits somewhere
	}
	return units.Watts(5 + int(o.byteAt(o.powers+(i*o.n+j)*boundNC*boundNG+f*boundNG+g)%16))
}

func (o *boundOracle) CoRunSplit(i, f, j, g int) apu.PowerSplit {
	return apu.PowerSplit{Uncore: o.CoRunPower(i, f, j, g)}
}

// boundTables is the same oracle seen through pairTables, as
// model.Predictor is: its rows are clamped at zero as buildPairTable
// clamps them (a table built from a characterization holds no NaN or
// infinity, so those read zero too), and Degradation is row × scale.
type boundTables struct{ *boundOracle }

func (o boundTables) row(c, g int, d apu.Device, fc, fg int) float64 {
	if v := o.raw(c, g, d, fc, fg); v >= 0 && v <= math.MaxFloat64 {
		return v
	}
	return 0
}

func (o boundTables) PairDegradations(c, g int) (cpu, gpu []float64, ng int) {
	rows := make([]float64, 2*boundNC*boundNG)
	for d := apu.CPU; d <= apu.GPU; d++ {
		for fc := 0; fc < boundNC; fc++ {
			for fg := 0; fg < boundNG; fg++ {
				rows[int(d)*boundNC*boundNG+fc*boundNG+fg] = o.row(c, g, d, fc, fg)
			}
		}
	}
	return rows[:boundNC*boundNG], rows[boundNC*boundNG:], boundNG
}

func (o boundTables) Scale(i int, d apu.Device) float64 {
	return scaleAlpha[o.byteAt(1+2*i+int(d))%8]
}

func (o boundTables) Degradation(i int, dev apu.Device, f, j, g int) float64 {
	if dev == apu.CPU {
		return o.row(i, j, apu.CPU, f, g) * o.Scale(i, apu.CPU)
	}
	return o.row(j, i, apu.GPU, g, f) * o.Scale(i, apu.GPU)
}

func (o boundTables) Feasible(c, g int, cap units.Watts, planes apu.DomainCaps, stride int) ([]apu.FreqPair, bool) {
	return nil, false
}

func (o boundTables) KeepFeasible(c, g int, cap units.Watts, planes apu.DomainCaps, stride int, pts []apu.FreqPair) []apu.FreqPair {
	return pts
}

// boundContext builds the context the fuzz bytes describe.
func boundContext(t *testing.T, data []byte) *Context {
	cfg := apu.DefaultConfig()
	cfg.CPUFreqs = apu.MustFreqLadder(1.2, 3.6, boundNC)
	cfg.GPUFreqs = apu.MustFreqLadder(0.35, 1.25, boundNG)
	flags := at(data, 0)
	var o Oracle = newBoundOracle(data)
	if flags&2 != 0 {
		o = boundTables{newBoundOracle(data)}
	}
	var cap units.Watts
	if flags&4 != 0 {
		cap = 15
	}
	cx, err := NewContext(o, cfg, cap)
	if err != nil {
		t.Fatal(err)
	}
	cx.FreqStride = 1 + int(flags>>3&1)
	return cx
}

// exhaustiveChoice is choosePairFreqsUncached for two jobs without the
// bound: every feasible point is scored.
func exhaustiveChoice(cx *Context, c, g int) pairChoice {
	refC, okC := cx.BestSoloTime(c, apu.CPU)
	refG, okG := cx.BestSoloTime(g, apu.GPU)
	if !okC || !okG {
		return pairChoice{}
	}
	best, bestScore := pairChoice{}, -1.0
	pts := cx.feasible(c, g)
	if len(pts) == 0 {
		return best
	}
	in := cx.pairInputs(c, g, pts)
	for _, p := range pts {
		k := p.CPU*in.ng + p.GPU
		dc, dg := float64(in.dc[k]*in.sc), float64(in.dg[k]*in.sg)
		tc := float64(in.tc[p.CPU]) * (1 + dc)
		tg := float64(in.tg[p.GPU]) * (1 + dg)
		if score := float64(refC)/tc + float64(refG)/tg; score > bestScore {
			bestScore, best = score, pairChoice{fp: p, dc: dc, dg: dg, ok: true}
		}
	}
	return best
}

// exhaustiveBeneficial is pairEverBeneficial without the bound.
func exhaustiveBeneficial(cx *Context, c, g int, seq units.Seconds) bool {
	pts := cx.feasible(c, g)
	if len(pts) == 0 {
		return false
	}
	in := cx.pairInputs(c, g, pts)
	for _, p := range pts {
		k := p.CPU*in.ng + p.GPU
		dc, dg := float64(in.dc[k]*in.sc), float64(in.dg[k]*in.sg)
		if NaivePairMakespan(in.tc[p.CPU], in.tg[p.GPU], dc, dg) < seq {
			return true
		}
	}
	return false
}

// everyPartnerPartition is the step-1 partition as each job's own loop
// over every partner, both placements, with nothing shared between the
// loops.
func everyPartnerPartition(cx *Context) Partition {
	var part Partition
	for i := 0; i < cx.n; i++ {
		co := false
		for j := 0; j < cx.n && !co; j++ {
			if j == i {
				continue
			}
			_, _, si, okI := cx.BestSoloAnywhere(i)
			_, _, sj, okJ := cx.BestSoloAnywhere(j)
			co = okI && okJ && (exhaustiveBeneficial(cx, i, j, si+sj) || exhaustiveBeneficial(cx, j, i, sj+si))
		}
		if co {
			part.SCo = append(part.SCo, i)
		} else {
			part.SSeq = append(part.SSeq, i)
		}
	}
	return part
}

// boundSeed spells a two-job, uncapped, stride-1 oracle without the
// table view: every standalone time 1 and every degradation 0 unless
// set says otherwise.
type boundSeed struct{ *boundOracle }

func newBoundSeed() boundSeed {
	o := newBoundOracle(nil)
	o.data = make([]byte, o.powers+o.n*o.n*boundNC*boundNG)
	return boundSeed{o}
}

func (s boundSeed) time(i int, d apu.Device, f int, v byte) boundSeed {
	k := s.times + i*(boundNC+boundNG) + f
	if d == apu.GPU {
		k += boundNC
	}
	s.data[k] = v
	return s
}

func (s boundSeed) deg(c, g int, d apu.Device, fc, fg int, v byte) boundSeed {
	s.data[s.degs+((c*s.n+g)*2+int(d))*boundNC*boundNG+fc*boundNG+fg] = v
	return s
}

// FuzzPairChoiceBound holds the bounded frequency traversal and the
// bounded partition test to exhaustive scans: the same chosen point and
// the same degradations, bit for bit, and the same beneficial answer
// for every ordered pair, whatever the oracle returns. The bounds may
// only skip points when every degradation and time is ≥ 0 and not NaN;
// the seeds with negative and NaN entries fail if they skip otherwise.
// Negative or NaN times are outside any real profile, and the fuzzer
// reaches them as well.
func FuzzPairChoiceBound(f *testing.F) {
	top := boundNC - 1
	// All-zero degradations: every point's score is its bound, so a
	// tie on the bound must not move the choice.
	f.Add(newBoundSeed().data)
	// Equal scores at distinct times: the earliest point must win.
	s := newBoundSeed()
	for fc := 0; fc < boundNC; fc++ {
		s.time(0, apu.CPU, fc, byte(fc))
	}
	f.Add(s.data)
	// A negative degradation lifts a later point above its bound: the
	// CPU job runs twice as fast beside the GPU job one level down.
	f.Add(newBoundSeed().deg(0, 1, apu.CPU, top-1, 0, degNeg).data)
	// A NaN degradation hides the CPU side of the naive co-run length,
	// so a point whose CPU time alone is seq or more still beats seq.
	s = newBoundSeed()
	for fc := 0; fc < top; fc++ {
		s.time(0, apu.CPU, fc, timeFive)
		for fg := 0; fg < boundNG; fg++ {
			s.deg(0, 1, apu.CPU, fc, fg, degNaN)
		}
	}
	for fg := 0; fg < boundNG; fg++ {
		s.deg(0, 1, apu.CPU, top, fg, degTwo)
		for fc := 0; fc < boundNC; fc++ {
			s.deg(1, 0, apu.CPU, fc, fg, degTwo)
		}
	}
	f.Add(s.data)
	// A negative time turns the CPU job's reference negative: beside an
	// infinite degradation its term rises to -0, above its bound.
	s = newBoundSeed().time(0, apu.CPU, top, timeNeg).deg(0, 1, apu.CPU, top-1, boundNG-1, degInf)
	for fg := 0; fg < boundNG; fg++ {
		s.deg(0, 1, apu.CPU, top, fg, degTwo).deg(0, 1, apu.GPU, top, fg, degTwo)
	}
	f.Add(s.data)
	// Through the table view, whose rows are never negative, a negative
	// scale does what the negative degradation did above.
	s = newBoundSeed().deg(0, 1, apu.CPU, top-1, 0, degHalf)
	s.data[0], s.data[1+2*0+int(apu.CPU)] = 2, scaleNeg
	f.Add(s.data)
	// The same oracles through the table view, capped, strided, with
	// three jobs and odd scales.
	f.Add(append([]byte{2 | 4, 0, 3, 1, 4, 5, 6}, make([]byte, 200)...))
	f.Add([]byte{1 | 2 | 8, 1, 2, 7, 7, 1, 0, 9, 9, 3, 1, 0, 5, 11, 12, 6, 4})
	f.Add([]byte{1 | 4, 0, 0, 0, 0, 0, 0, 13, 2, 7, 0, 14, 3, 5, 12, 1, 6, 8})

	f.Fuzz(func(t *testing.T, data []byte) {
		cx := boundContext(t, data)
		cx.initTables()
		for c := 0; c < cx.n; c++ {
			for g := 0; g < cx.n; g++ {
				if c == g {
					continue
				}
				got, want := cx.choosePairFreqsUncached(c, g), exhaustiveChoice(cx, c, g)
				if got.fp != want.fp || got.ok != want.ok ||
					math.Float64bits(got.dc) != math.Float64bits(want.dc) || math.Float64bits(got.dg) != math.Float64bits(want.dg) {
					t.Fatalf("pair (%d,%d): bounded choice %+v, exhaustive %+v", c, g, got, want)
				}
				_, _, sc, okC := cx.BestSoloAnywhere(c)
				_, _, sg, okG := cx.BestSoloAnywhere(g)
				if !okC || !okG {
					continue
				}
				if got, want := cx.pairEverBeneficial(c, g, sc+sg), exhaustiveBeneficial(cx, c, g, sc+sg); got != want {
					t.Fatalf("pair (%d,%d): bounded partition test %v, exhaustive %v", c, g, got, want)
				}
			}
		}
		if got, want := cx.PartitionJobs(), everyPartnerPartition(cx); !reflect.DeepEqual(got, want) {
			t.Fatalf("partition %+v, every partner asked %+v", got, want)
		}
	})
}

// The predictor's pair tables always admit the bounds: a warm epoch
// that fell back to the exhaustive loops would plan the same, only
// slower, and no golden would notice.
func TestPredictorPairsAreBounded(t *testing.T) {
	cx, _ := testContext(t, workload.Batch16(), 15)
	for c := 0; c < cx.Oracle.NumJobs(); c++ {
		for g := 0; g < cx.Oracle.NumJobs(); g++ {
			if pts := cx.feasible(c, g); len(pts) > 0 && !cx.pairInputs(c, g, pts).bounded {
				t.Fatalf("pair (%d,%d) of Batch16 at 15 W is not bounded", c, g)
			}
		}
	}
}
