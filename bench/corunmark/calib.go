package main

import (
	"math"
	"sort"
	"time"
)

// The sandbox this benchmark runs in is a few virtual cores of a
// shared host whose speed moves by a quarter between one minute and
// the next, the same for everything that runs in that minute, and no
// statistic over one run's segments can tell a slow program from a slow
// minute (NOISE.md). So every run times, between its own units of
// work, a fixed piece of computation that belongs to the benchmark
// and never changes: the kernel below. A timing is reported in
// reference time, measured time × refKernelMs ÷ the kernel time
// measured beside it, which is what the same work would have taken in
// a minute when the kernel takes refKernelMs.

// refKernelMs defines the reference speed: about the kernel's time
// between plan-fig11's epochs on the sizing host in a quiet hour.
const refKernelMs = 0.17

const kernelN = 400

// kernel is a tenth of a millisecond of what the planner does most:
// floating-point transcendentals, map writes and reads, sorting. Its
// input is fixed and it works in its own buffers, without allocating,
// so that the collector's phase and the state of the heap, which a
// restart or a rebuild has just changed, do not reach its timing. One
// goroutine uses one kernel.
type kernel struct {
	xs, ys [kernelN]float64
	m      map[int]float64
	sink   float64
}

func newKernel() *kernel { return &kernel{m: make(map[int]float64, kernelN)} }

func (k *kernel) run() {
	xs, ys := k.xs[:], k.ys[:]
	for i := range xs {
		x := float64(i%97) + 1.5
		xs[i] = math.Pow(x, 1.7) * math.Exp(-x/50)
		k.m[i*7919%1009] = xs[i]
	}
	sort.Float64s(xs)
	s := 0.0
	for key, v := range k.m {
		s += v * float64(key&3)
	}
	for r := 0; r < 6; r++ {
		for i := range ys {
			ys[i] = xs[(i*31+r)%kernelN] / (1 + float64(i))
			if ys[i] > s {
				s -= ys[i]
			}
		}
		sort.Float64s(ys)
		s += ys[kernelN/2]
	}
	k.sink += s
}

// ms runs the kernel once and returns how long it took.
func (k *kernel) ms() float64 {
	t0 := time.Now()
	k.run()
	return ms(time.Since(t0))
}

// slowdown is how much slower than the reference the host ran while
// the kernel timings were taken: above 1 in a slow minute. Measured
// times are divided by it, rates multiplied.
func slowdown(kernelMs []float64) float64 {
	return median(kernelMs) / refKernelMs
}

// slowdown times the kernel n times and returns the slowdown they
// show: the host's speed at this moment.
func (k *kernel) slowdown(n int) float64 {
	ks := make([]float64, n)
	for i := range ks {
		ks[i] = k.ms()
	}
	return slowdown(ks)
}

// timedUnits collects the repeats of one unit of work that is timed
// whole (a cold boot, a restart, a rebuild): each as measured, and in
// reference time by the slowdown taken right before it.
type timedUnits struct {
	measured, ref []float64
}

func (t *timedUnits) add(seconds, slow float64) {
	t.measured = append(t.measured, seconds)
	t.ref = append(t.ref, seconds/slow)
}
