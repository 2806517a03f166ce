package corun

// The ASCII Gantt chart behind Report.WriteGantt: one lane per
// concurrently running job on each device, time scaled to a fixed
// width. It makes co-schedules inspectable at a glance — which jobs
// overlapped, where a device idled, and where the makespan-critical
// tail sits.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"

	"corun/internal/apu"
	"corun/internal/sim"
	"corun/internal/units"
)

// bar is one job's rendered interval.
type bar struct {
	label      string
	start, end units.Seconds
	dev        apu.Device
	lane       int
}

// renderGantt draws the chart from a run's completions and makespan.
// width is the number of columns used for the time axis; values below
// 20 are raised to 20.
func renderGantt(w io.Writer, completions []sim.Completion, makespan units.Seconds, width int) error {
	if width < 20 {
		width = 20
	}
	if len(completions) == 0 || makespan <= 0 {
		_, err := fmt.Fprintln(w, "(empty schedule)")
		return err
	}

	bars := make([]bar, 0, len(completions))
	for _, c := range completions {
		bars = append(bars, bar{label: c.Inst.Label, start: c.Start, end: c.End, dev: c.Dev})
	}
	assignLanes(bars)

	scale := float64(width) / float64(makespan)
	for _, dev := range []apu.Device{apu.CPU, apu.GPU} {
		lanes := lanesOf(bars, dev)
		if len(lanes) == 0 {
			if _, err := fmt.Fprintf(w, "%s | (idle)\n", dev); err != nil {
				return err
			}
			continue
		}
		for li, lane := range lanes {
			head := "    "
			if li == 0 {
				head = fmt.Sprintf("%-4s", dev.String())
			}
			if _, err := fmt.Fprintf(w, "%s|%s\n", head, laneString(lane, scale, width)); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintf(w, "    0s%s%.1fs\n", strings.Repeat(" ", max(1, width-10)), float64(makespan))
	return err
}

// assignLanes gives overlapping bars on the same device distinct lanes
// (first-fit by start time).
func assignLanes(bars []bar) {
	sort.SliceStable(bars, func(i, j int) bool { return bars[i].start < bars[j].start })
	laneEnds := map[apu.Device][]units.Seconds{}
	for i := range bars {
		ends := laneEnds[bars[i].dev]
		placed := false
		for li, end := range ends {
			if bars[i].start >= end-1e-9 {
				bars[i].lane = li
				ends[li] = bars[i].end
				placed = true
				break
			}
		}
		if !placed {
			bars[i].lane = len(ends)
			ends = append(ends, bars[i].end)
		}
		laneEnds[bars[i].dev] = ends
	}
}

func lanesOf(bars []bar, dev apu.Device) [][]bar {
	maxLane := -1
	for _, b := range bars {
		if b.dev == dev && b.lane > maxLane {
			maxLane = b.lane
		}
	}
	if maxLane < 0 {
		return nil
	}
	lanes := make([][]bar, maxLane+1)
	for _, b := range bars {
		if b.dev == dev {
			lanes[b.lane] = append(lanes[b.lane], b)
		}
	}
	return lanes
}

// laneString draws one lane: job intervals as [label----] blocks.
func laneString(lane []bar, scale float64, width int) string {
	row := make([]byte, width)
	for i := range row {
		row[i] = ' '
	}
	for _, b := range lane {
		s := int(float64(b.start) * scale)
		e := int(float64(b.end) * scale)
		if e <= s {
			e = s + 1
		}
		if e > width {
			e = width
		}
		if s >= width {
			s = width - 1
		}
		for i := s; i < e; i++ {
			row[i] = '-'
		}
		row[s] = '['
		row[e-1] = ']'
		// Place as much of the label as fits inside the block, cut at a
		// rune boundary so a multi-byte label stays valid UTF-8.
		inner := e - s - 2
		if inner > 0 {
			lbl := b.label
			if len(lbl) > inner {
				for inner > 0 && !utf8.RuneStart(lbl[inner]) {
					inner--
				}
				lbl = lbl[:inner]
			}
			copy(row[s+1:], lbl)
		}
	}
	return string(row)
}
