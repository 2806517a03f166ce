package corun

import (
	"strings"
	"testing"
	"unicode/utf8"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/sim"
	"corun/internal/workload"
)

func ganttRun(t *testing.T, cpu, gpu []string, slots int) *sim.Result {
	t.Helper()
	var cpuQ, gpuQ []*workload.Instance
	id := 0
	for _, n := range cpu {
		cpuQ = append(cpuQ, &workload.Instance{ID: id, Prog: workload.MustByName(n), Scale: 1, Label: n})
		id++
	}
	for _, n := range gpu {
		gpuQ = append(gpuQ, &workload.Instance{ID: id, Prog: workload.MustByName(n), Scale: 1, Label: n})
		id++
	}
	opts := sim.Options{Cfg: apu.DefaultConfig(), Mem: memsys.Default(), CPUSlots: slots}
	res, err := sim.Run(opts, sim.NewQueueDispatcher(cpuQ, gpuQ))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGanttRenderBasic(t *testing.T) {
	res := ganttRun(t, []string{"dwt2d"}, []string{"hotspot", "lud"}, 1)
	var b strings.Builder
	if err := renderGantt(&b, res.Completions, res.Makespan, 60); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"CPU", "GPU", "dwt2d", "hotspot", "lud", "0s"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// Every chart line fits the width budget (head + axis).
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if len(line) > 60+6 {
			t.Errorf("line overflows: %q (%d cols)", line, len(line))
		}
	}
}

func TestGanttRenderMultiprogrammedLanes(t *testing.T) {
	res := ganttRun(t, []string{"dwt2d", "lud", "cfd"}, nil, 3)
	var b strings.Builder
	if err := renderGantt(&b, res.Completions, res.Makespan, 60); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Three overlapping CPU jobs need three lanes: the CPU block spans
	// three lines (1 labelled + 2 continuation) plus the idle GPU line.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	cpuLines := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "CPU") || strings.HasPrefix(l, "    |") {
			cpuLines++
		}
	}
	if cpuLines < 3 {
		t.Errorf("expected >=3 CPU lanes, chart:\n%s", out)
	}
	if !strings.Contains(out, "(idle)") {
		t.Errorf("idle GPU not marked:\n%s", out)
	}
}

func TestGanttRenderEmpty(t *testing.T) {
	var b strings.Builder
	if err := renderGantt(&b, nil, 0, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "empty") {
		t.Errorf("empty schedule not marked: %q", b.String())
	}
}

func TestGanttRenderTinyWidthClamped(t *testing.T) {
	res := ganttRun(t, nil, []string{"hotspot"}, 1)
	var b strings.Builder
	if err := renderGantt(&b, res.Completions, res.Makespan, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "hotspo") {
		t.Errorf("clamped-width chart lost the job label:\n%s", b.String())
	}
}

// Bars never overlap within a lane.
func TestGanttLaneAssignmentNoOverlap(t *testing.T) {
	bars := []bar{
		{label: "a", start: 0, end: 10, dev: apu.CPU},
		{label: "b", start: 5, end: 15, dev: apu.CPU},
		{label: "c", start: 10, end: 20, dev: apu.CPU},
		{label: "d", start: 0, end: 30, dev: apu.GPU},
	}
	assignLanes(bars)
	for i := range bars {
		for j := i + 1; j < len(bars); j++ {
			a, b2 := bars[i], bars[j]
			if a.dev != b2.dev || a.lane != b2.lane {
				continue
			}
			if a.start < b2.end && b2.start < a.end {
				t.Errorf("bars %s and %s overlap in lane %d", a.label, b2.label, a.lane)
			}
		}
	}
	// "a" and "c" can share a lane; "b" cannot share with "a".
	// assignLanes reorders the slice, so look bars up by label.
	byLabel := map[string]bar{}
	for _, b2 := range bars {
		byLabel[b2.label] = b2
	}
	if byLabel["a"].lane == byLabel["b"].lane {
		t.Error("overlapping bars a and b share a lane")
	}
	if byLabel["a"].lane != byLabel["c"].lane {
		t.Error("non-overlapping bars a and c should reuse a lane")
	}
}

// A label is cut to its block at a rune boundary: the chart of a batch
// whose program names are multi-byte stays valid UTF-8 at every width.
func TestGanttMultiByteLabels(t *testing.T) {
	var batch []*Instance
	for id, name := range []string{strings.Repeat("é", 30), strings.Repeat("日", 30)} {
		in, err := NewInstance(ProgramSpec{
			Name: name, Work: 80,
			CPUEff: 0.6, GPUEff: 2.2,
			CPUSens: 0.25, GPUSens: 0.1,
			Phases: []PhaseSpec{{Frac: 1, BytesPerOp: 0.6}},
		}, id, 1)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, in)
	}
	w, err := capped15(t).Prepare(batch)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := w.ScheduleHCS()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	for width := 20; width <= 60; width++ {
		var b strings.Builder
		if err := rep.WriteGantt(&b, width); err != nil {
			t.Fatal(err)
		}
		if !utf8.ValidString(b.String()) {
			t.Errorf("width %d: chart is not valid UTF-8:\n%q", width, b.String())
		}
	}
}
