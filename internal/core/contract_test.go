package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"corun/internal/apu"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// steadyCheck wraps a dispatcher and, after each decline, asks it again
// for the same device with the view's levels and plane powers moved —
// to the lowest levels and no power, and to the highest levels and more
// power than measured: a dispatcher declines steadily (see
// sim.Dispatcher) if those asks decline too and leave state (a snapshot
// of what Next may change) as it was.
type steadyCheck struct {
	t        *testing.T
	name     string
	d        sim.Dispatcher
	state    func() any
	declines int
}

func (s *steadyCheck) Next(dev apu.Device, v *sim.View) *sim.Dispatch {
	if got := s.d.Next(dev, v); got != nil {
		return got
	}
	s.declines++
	before := s.state()
	cfg := apu.DefaultConfig()
	for _, moved := range []sim.View{
		{Running: v.Running},
		{Running: v.Running, Freq: [apu.NumDevices]int{cfg.MaxFreqIndex(apu.CPU), cfg.MaxFreqIndex(apu.GPU)}, Plane: [apu.NumDevices]units.Watts{v.Plane[apu.CPU] + 10, v.Plane[apu.GPU] + 10}},
	} {
		if again := s.d.Next(dev, &moved); again != nil {
			s.t.Errorf("%s: declined %v, then dispatched %s with the same jobs running", s.name, dev, again.Inst.Label)
		}
	}
	if after := s.state(); !reflect.DeepEqual(before, after) {
		s.t.Errorf("%s: asking %v again after a decline changed its state: %+v -> %+v", s.name, dev, before, after)
	}
	return nil
}

// countedSource counts the values drawn from it.
type countedSource struct {
	rand.Source
	draws int
}

func (c *countedSource) Int63() int64 {
	c.draws++
	return c.Source.Int63()
}

// contractPlan is a random plan of n jobs with two of them exclusive, so
// the schedule dispatcher declines while a co-runner drains.
func contractPlan(n int, seed int64) *Schedule {
	s := RandomPlan(n, seed)
	s.Exclusive = map[int]bool{int(seed) % n: true, int(seed+3) % n: true}
	return s
}

// The simulator asks a dispatcher again only after a job starts or
// finishes, so the schedule dispatcher (every planned policy) and the
// Random baseline's dispatcher must decline steadily: asked again with
// the same jobs running, the schedule dispatcher's queues stay as they
// were and the random dispatcher draws nothing.
func TestDispatchersDeclineSteadily(t *testing.T) {
	declines := map[string]int{}
	for _, batch := range [][]*workload.Instance{workload.Batch8(), workload.Batch16()} {
		for _, cap := range []units.Watts{12, 15} {
			cx, opts := testContext(t, batch, cap)
			for seed := int64(1); seed <= 6; seed++ {
				d := newScheduleDispatcher(cx, contractPlan(len(batch), seed), batch)
				check := &steadyCheck{t: t, name: fmt.Sprintf("scheduleDispatcher/n=%d/cap=%v/seed=%d", len(batch), cap, seed), d: d,
					state: func() any { return d.queues }}
				if _, err := opts.simulate(sim.Options{Governor: &planGovernor{cx: cx, pair: [apu.NumDevices]int{-1, -1}}}, check); err != nil {
					t.Fatal(err)
				}
				declines["scheduleDispatcher"] += check.declines

				r := newRandomDispatcher(batch, seed)
				src := &countedSource{Source: rand.NewSource(seed)}
				putRand(r.rng)
				r.rng = rand.New(src)
				check = &steadyCheck{t: t, name: fmt.Sprintf("randomDispatcher/n=%d/cap=%v/seed=%d", len(batch), cap, seed), d: r,
					state: func() any {
						return []any{append([]int(nil), r.remaining...), r.idleUntil, r.idleSet, src.draws}
					}}
				if _, err := opts.simulate(sim.Options{Governor: opts.biasedGovernor(sim.GPUBiased)}, check); err != nil {
					t.Fatal(err)
				}
				declines["randomDispatcher"] += check.declines
			}
		}
	}
	for _, name := range []string{"scheduleDispatcher", "randomDispatcher"} {
		if declines[name] == 0 {
			t.Errorf("%s never declined", name)
		}
	}
}

// pureCheck wraps the plan governor and asks, beside each Adjust, the
// same governor again and a fresh one over the same context: a pure
// governor (see sim.Governor) gives all three the same answer, and
// asking again leaves its memo as the first ask left it.
type pureCheck struct {
	t    *testing.T
	g    *planGovernor
	asks int
}

func (c *pureCheck) Adjust(power units.Watts, v *sim.View, cfg *apu.Config) [apu.NumDevices]int {
	c.asks++
	lv := c.g.Adjust(power, v, cfg)
	memo := *c.g
	lv2 := c.g.Adjust(power, v, cfg)
	lv3 := (&planGovernor{cx: c.g.cx, pair: [apu.NumDevices]int{-1, -1}}).Adjust(power, v, cfg)
	if lv2 != lv || lv3 != lv {
		c.t.Errorf("Adjust(%v, %+v) = %v, asked again %v, a fresh governor %v", power, *v, lv, lv2, lv3)
	}
	if *c.g != memo {
		c.t.Errorf("asking again changed the governor: %+v -> %+v", memo, *c.g)
	}
	return lv
}

// The simulator skips a governor tick whose inputs are unchanged since a
// tick that moved no level, so the plan governor, which every planned
// policy executes under, must be pure. (sim's own test covers
// BiasedGovernor, the baselines' governor.)
func TestGovernorsArePure(t *testing.T) {
	batch := workload.Batch8()
	for _, cap := range []units.Watts{12, 15} {
		cx, opts := testContext(t, batch, cap)
		for seed := int64(1); seed <= 4; seed++ {
			c := &pureCheck{t: t, g: &planGovernor{cx: cx, pair: [apu.NumDevices]int{-1, -1}}}
			if _, err := opts.simulate(sim.Options{Governor: c}, newScheduleDispatcher(cx, contractPlan(len(batch), seed), batch)); err != nil {
				t.Fatal(err)
			}
			if c.asks == 0 {
				t.Errorf("cap %v, seed %d: the governor was never asked", cap, seed)
			}
		}
	}
}
