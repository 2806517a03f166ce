package core

import (
	"fmt"
	"io"

	"corun/internal/apu"
)

// ExplainPlan writes a human-readable account of why a schedule looks
// the way it does: each job's preference label and cap-feasible solo
// times, the queue placements, and the frequency pair the runtime will
// choose for each adjacent pairing in the plan. It is a debugging and
// teaching aid for the CLI, not part of the algorithm.
func (cx *Context) ExplainPlan(w io.Writer, s *Schedule, labels []string) error {
	n := cx.Oracle.NumJobs()
	if err := s.Validate(n); err != nil {
		return err
	}
	name := func(i int) string {
		if i >= 0 && i < len(labels) && labels[i] != "" {
			return labels[i]
		}
		return fmt.Sprintf("job%d", i)
	}

	prefs, err := cx.Categorize(s.Jobs())
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "power cap: %v\n\njobs:\n", capLabel(cx)); err != nil {
		return err
	}
	for _, i := range s.Jobs() {
		tc, okC := cx.BestSoloTime(i, apu.CPU)
		tg, okG := cx.BestSoloTime(i, apu.GPU)
		line := fmt.Sprintf("  %-16s pref=%-3s", name(i), prefs[i])
		if okC {
			fc, _ := cx.BestSoloFreq(i, apu.CPU)
			line += fmt.Sprintf("  cpu %6.1fs@%v", float64(tc), cx.Cfg.Freq(apu.CPU, fc))
		}
		if okG {
			fg, _ := cx.BestSoloFreq(i, apu.GPU)
			line += fmt.Sprintf("  gpu %6.1fs@%v", float64(tg), cx.Cfg.Freq(apu.GPU, fg))
		}
		if s.Exclusive[i] {
			line += "  [runs alone]"
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}

	if _, err := fmt.Fprintf(w, "\nqueues:\n  CPU: %v\n  GPU: %v\n\npairings (frequencies the runtime will pick):\n",
		nameList(s.CPUOrder, name), nameList(s.GPUOrder, name)); err != nil {
		return err
	}
	// Replay the predicted timeline and report each dispatch with its
	// chosen frequencies and predicted degradation.
	_, err = cx.walk(s, func(ev timelineEvent) error {
		if ev.done {
			return nil
		}
		ci, gi := asPair(ev.dev, ev.job, ev.other)
		fp, dc, dg, ok := cx.ChoosePairFreqs(ci, gi)
		if !ok {
			return fmt.Errorf("core: no cap-feasible frequencies for pair (%d,%d)", ci, gi)
		}
		beside := "idle"
		if ev.other >= 0 {
			beside = name(ev.other)
		}
		deg := [apu.NumDevices]float64{dc, dg}[ev.dev]
		_, err := fmt.Fprintf(w, "  t=%7.1fs  %v <- %-16s beside %-16s freqs %v/%v  predicted degradation %.0f%%\n",
			ev.now, ev.dev, name(ev.job), beside,
			cx.Cfg.Freq(apu.CPU, fp.CPU), cx.Cfg.Freq(apu.GPU, fp.GPU), 100*deg)
		return err
	})
	return err
}

func nameList(idx []int, name func(int) string) []string {
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = name(j)
	}
	return out
}

func capLabel(cx *Context) string {
	if !cx.Capped() {
		return "none"
	}
	return fmt.Sprintf("%.1f W", float64(cx.Cap))
}
