package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"corun/bench/corunmark/wire"
)

// span is one timed interval of the traced run; the probe binary
// emits the same shape.
type span = wire.Span

// tracer hands out span and trip IDs; the spans themselves are kept
// by whoever records them (a segment's loopStats, the library loop)
// and merged when the run ends.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	trips  atomic.Int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.origin)) }

func (t *tracer) span(name string, start, end time.Time, parent, trip int64) span {
	return span{ID: t.nextID.Add(1), Name: name, Start: t.at(start), End: t.at(end), Parent: parent, Trip: trip}
}

// selfTimes gives, for every span name, each trip's total self time
// in milliseconds: a span's duration minus the part its children
// cover (children of one parent do not overlap here).
func selfTimes(spans []span) map[string][]float64 {
	covered := map[int64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	type key struct {
		name string
		trip int64
	}
	perTrip := map[key]int64{}
	for _, s := range spans {
		perTrip[key{s.Name, s.Trip}] += s.End - s.Start - covered[s.ID]
	}
	out := map[string][]float64{}
	for k, ns := range perTrip {
		out[k.name] = append(out[k.name], float64(ns)/1e6)
	}
	return out
}

// writeTrace writes the traced run's spans. The harness and the probe
// number their spans independently, so each set goes under its own key.
func writeTrace(path string, harness, probe []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(map[string]any{"spans": harness, "probe_spans": probe})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
