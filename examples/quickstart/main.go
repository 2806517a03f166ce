// Quickstart: schedule the paper's 8-program Rodinia batch on the
// simulated integrated CPU-GPU machine under a 15 W power cap, compare
// HCS+ against the Random and Default baselines, and print the result.
package main

import (
	"fmt"
	"log"

	"corun"
)

func main() {
	// Build the runtime: machine model, memory-contention model, and
	// the one-time micro-benchmark characterization of section V.
	sys, err := corun.NewSystem(corun.WithPowerCap(15))
	if err != nil {
		log.Fatal(err)
	}

	// Profile the batch offline and assemble the predictive model.
	w, err := sys.Prepare(corun.Batch8())
	if err != nil {
		log.Fatal(err)
	}

	// Plan with the heuristic co-scheduler plus local refinement.
	plan, err := w.ScheduleHCSPlus()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("planned schedule:", plan)

	// Execute on the simulated machine.
	rep, err := w.Run(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HCS+   makespan %.1fs  avg power %.2f W  cap violations %d\n",
		float64(rep.Makespan), float64(rep.AvgPower), rep.CapViolations)

	// Baselines for comparison, run by policy name as the daemon runs
	// them: both dispatch as processors fall idle under the paper's
	// GPU-biased reactive governor, so there is no plan to return.
	_, rnd, err := w.RunPolicy("random", 1)
	if err != nil {
		log.Fatal(err)
	}
	_, def, err := w.RunPolicy("default", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Random makespan %.1fs (HCS+ is %.0f%% faster)\n",
		float64(rnd.Makespan), 100*(float64(rnd.Makespan)/float64(rep.Makespan)-1))
	fmt.Printf("Default makespan %.1fs (HCS+ is %.0f%% faster)\n",
		float64(def.Makespan), 100*(float64(def.Makespan)/float64(rep.Makespan)-1))

	bound, err := w.LowerBound()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lower bound on the optimal makespan: %.1fs\n", float64(bound))
}
