package main

import (
	"fmt"
	"strings"
)

// segFigures holds, per segment of the measured window, the five
// end-to-end figures that are timed. Every segment is the same fixed
// amount of work.
type segFigures struct {
	jobsPerS, p50, p95, cpuMs, overheadPct []float64
}

func (f *segFigures) add(jobsPerS, p50, p95, cpuMs, overheadPct float64) {
	f.jobsPerS = append(f.jobsPerS, jobsPerS)
	f.p50 = append(f.p50, p50)
	f.p95 = append(f.p95, p95)
	f.cpuMs = append(f.cpuMs, cpuMs)
	f.overheadPct = append(f.overheadPct, overheadPct)
}

// segSeries is the window's figures in reference time (calib.go) and
// as measured, and the host's slowdown over each segment.
type segSeries struct {
	ref, measured segFigures
	slow          []float64
}

// addMeasured books a segment whose figures were measured while the
// host ran slow times slower than the reference.
func (s *segSeries) addMeasured(jobsPerS, p50, p95, cpuMs, overheadPct, slow float64) {
	s.measured.add(jobsPerS, p50, p95, cpuMs, overheadPct)
	s.ref.add(jobsPerS*slow, p50/slow, p95/slow, cpuMs/slow, overheadPct/slow)
	s.slow = append(s.slow, slow)
}

func printSeries(name string, series []float64) {
	var b strings.Builder
	for _, v := range series {
		fmt.Fprintf(&b, " %.5g", v)
	}
	fmt.Printf("segments %-20s%s\n", name, b.String())
}

// report reduces each series to its median, the run's value, prints
// the series as measured, and records the run's own noise floor beside
// it: the spread over the segments.
func (s *segSeries) report(res *result, samplesPerSegment int) {
	printSeries("host_slowdown", s.slow)
	for _, m := range []struct {
		name          string
		ref, measured []float64
		samples       int
	}{
		{"jobs_per_s", s.ref.jobsPerS, s.measured.jobsPerS, len(s.slow)},
		{"trip_p50_ms", s.ref.p50, s.measured.p50, samplesPerSegment},
		{"trip_p95_ms", s.ref.p95, s.measured.p95, samplesPerSegment},
		{"cpu_ms_per_job", s.ref.cpuMs, s.measured.cpuMs, len(s.slow)},
		{"sched_overhead_pct", s.ref.overheadPct, s.measured.overheadPct, len(s.slow)},
	} {
		res.setTimed(m.name, median(m.ref), median(m.measured), m.samples)
		printSeries(m.name, m.measured)
	}
	res.layer["harness.host_slowdown"] = median(s.slow)
	res.layer["harness.seg_spread_pct.jobs_per_s"] = spreadPct(s.ref.jobsPerS)
	res.layer["harness.seg_spread_pct.trip_p95_ms"] = spreadPct(s.ref.p95)
}
