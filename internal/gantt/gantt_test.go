package gantt

import (
	"strings"
	"testing"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/sim"
	"corun/internal/workload"
)

func run(t *testing.T, cpu, gpu []string, slots int) *sim.Result {
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

func TestRenderBasic(t *testing.T) {
	res := run(t, []string{"dwt2d"}, []string{"hotspot", "lud"}, 1)
	var b strings.Builder
	if err := RenderParts(&b, res.Completions, res.Makespan, 60); err != nil {
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

func TestRenderMultiprogrammedLanes(t *testing.T) {
	res := run(t, []string{"dwt2d", "lud", "cfd"}, nil, 3)
	var b strings.Builder
	if err := RenderParts(&b, res.Completions, res.Makespan, 60); err != nil {
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

func TestRenderEmpty(t *testing.T) {
	var b strings.Builder
	if err := RenderParts(&b, nil, 0, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "empty") {
		t.Errorf("empty schedule not marked: %q", b.String())
	}
}

func TestRenderTinyWidthClamped(t *testing.T) {
	res := run(t, nil, []string{"hotspot"}, 1)
	var b strings.Builder
	if err := RenderParts(&b, res.Completions, res.Makespan, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "hotspo") {
		t.Errorf("clamped-width chart lost the job label:\n%s", b.String())
	}
}

// Bars never overlap within a lane.
func TestLaneAssignmentNoOverlap(t *testing.T) {
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
