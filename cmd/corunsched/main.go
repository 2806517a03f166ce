// Command corunsched schedules a batch of jobs on the simulated
// integrated CPU-GPU machine and reports the outcome.
//
// Usage:
//
//	corunsched [-cap watts] [-policy name] [-batch 8|16]
//	           [-jobs name,name,...] [-seed n] [-v]
//
// Every policy name — the planned policies and the paper's
// dispatcher-driven baselines alike — comes from the policy registry;
// run with -policy help to list them.
//
// Examples:
//
//	corunsched -cap 15 -policy hcs+ -batch 16
//	corunsched -cap 16 -policy random -seed 3 -jobs dwt2d,streamcluster,lud
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"corun"
)

func main() {
	cap := flag.Float64("cap", 15, "package power cap in watts (0 = uncapped)")
	policy := flag.String("policy", corun.ServeHCSPlus, policyUsage())
	batchSize := flag.Int("batch", 8, "use the paper's 8- or 16-instance batch")
	jobs := flag.String("jobs", "", "comma-separated benchmark names overriding -batch")
	seed := flag.Int64("seed", 1, "seed for the random policy")
	verbose := flag.Bool("v", false, "print per-job completions")
	chart := flag.Bool("gantt", false, "render the executed schedule as an ASCII Gantt chart")
	machine := flag.String("machine", "ivybridge", "machine preset: ivybridge | kaveri")
	explain := flag.Bool("explain", false, "for the planned policies: explain the schedule that was run")
	flag.Parse()

	batch, err := buildBatch(*jobs, *batchSize)
	if err != nil {
		fatal(err)
	}

	opts := []corun.Option{corun.WithPowerCap(*cap)}
	switch strings.ToLower(*machine) {
	case "ivybridge", "":
		// default machine
	case "kaveri":
		opts = append(opts, corun.WithMachine(corun.KaveriMachine()))
	default:
		fatal(fmt.Errorf("unknown machine %q", *machine))
	}
	sys, err := corun.NewSystem(opts...)
	if err != nil {
		fatal(err)
	}
	w, err := sys.Prepare(batch)
	if err != nil {
		fatal(err)
	}

	switch strings.ToLower(strings.TrimSpace(*policy)) {
	case "help", "list":
		listPolicies(os.Stdout)
		return
	}
	// The registry rejects unknown names with the valid list. plan is
	// nil for the baselines that dispatch instead of following one.
	plan, report, err := w.RunPolicy(*policy, *seed)
	if err != nil {
		fatal(err)
	}
	if plan != nil {
		fmt.Println("schedule:", plan)
		if *explain {
			if err := w.ExplainPlan(os.Stdout, plan); err != nil {
				fatal(err)
			}
		}
	}

	fmt.Printf("makespan:       %.2f s\n", float64(report.Makespan))
	fmt.Printf("average power:  %.2f W (max sample %.2f W)\n", float64(report.AvgPower), float64(report.MaxPower))
	fmt.Printf("energy:         %.0f J\n", report.EnergyJ)
	if *cap > 0 {
		fmt.Printf("cap violations: %d samples (max excess %.2f W)\n", report.CapViolations, float64(report.MaxExcess))
	}
	if bound, err := w.LowerBound(); err == nil {
		fmt.Printf("lower bound:    %.2f s (%.0f%% of achieved)\n",
			float64(bound), 100*float64(bound)/float64(report.Makespan))
	}
	if *verbose {
		fmt.Println("completions:")
		for _, c := range report.Completions {
			fmt.Printf("  %-18s %v  %8.1fs -> %8.1fs\n", c.Inst.Label, c.Dev, float64(c.Start), float64(c.End))
		}
	}
	if *chart {
		if err := report.WriteGantt(os.Stdout, 72); err != nil {
			fatal(err)
		}
	}
}

func buildBatch(jobs string, batchSize int) ([]*corun.Instance, error) {
	if jobs != "" {
		return corun.Subset(strings.Split(jobs, ",")...)
	}
	switch batchSize {
	case 8:
		return corun.Batch8(), nil
	case 16:
		return corun.Batch16(), nil
	default:
		return nil, fmt.Errorf("-batch must be 8 or 16 (or use -jobs)")
	}
}

// policyUsage builds the -policy help text from the registry instead
// of a hand-maintained list.
func policyUsage() string {
	return "policy from the registry: " + strings.Join(corun.Policies(), " | ") +
		" (or 'help' to describe them)"
}

// listPolicies describes every registered policy.
func listPolicies(w io.Writer) {
	fmt.Fprintln(w, "registered policies:")
	for _, info := range corun.DescribePolicies() {
		name := info.Name
		if len(info.Aliases) > 0 {
			name += " (" + strings.Join(info.Aliases, ", ") + ")"
		}
		fmt.Fprintf(w, "  %-24s %s\n", name, info.Description)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corunsched:", err)
	os.Exit(1)
}
