package core

import (
	"corun/internal/apu"
	"corun/internal/units"
)

// The external (package core_test) timeline tests plan through
// internal/policy, which imports this package; these are their views
// of the unexported timeline.

var (
	TestContext = testContext
	CapCases    = capCases
	BatchCases  = batchCases
)

type TimelineEvent = timelineEvent

func (e timelineEvent) Now() float64    { return e.now }
func (e timelineEvent) Dev() apu.Device { return e.dev }
func (e timelineEvent) Job() int        { return e.job }
func (e timelineEvent) Other() int      { return e.other }
func (e timelineEvent) Done() bool      { return e.done }

func (cx *Context) Walk(s *Schedule, visit func(TimelineEvent) error) (units.Seconds, error) {
	return cx.walk(s, visit)
}
