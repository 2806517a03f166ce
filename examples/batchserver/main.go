// Batchserver: an online shared-server scenario. Batches of OpenCL
// jobs arrive over time at a capped APU node; for each arriving batch
// the runtime plans an HCS+ co-schedule and executes it, tracking
// cumulative throughput against a naive first-come first-served
// baseline — the "shared servers, workstation clusters, and data
// centers" use case the paper's introduction motivates.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"corun"
)

func main() {
	const cap = 15
	sys, err := corun.NewSystem(corun.WithPowerCap(cap))
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	names := corun.BenchmarkNames()

	var smartTotal, naiveTotal, jobs float64
	for batchNo := 1; batchNo <= 5; batchNo++ {
		// A batch of 4-8 random jobs arrives.
		n := 4 + rng.Intn(5)
		picks := make([]string, n)
		for i := range picks {
			picks[i] = names[rng.Intn(len(names))]
		}
		batch, err := corun.Subset(picks...)
		if err != nil {
			log.Fatal(err)
		}
		w, err := sys.Prepare(batch)
		if err != nil {
			log.Fatal(err)
		}

		// Smart: HCS+ co-schedule.
		plan, err := w.ScheduleHCSPlus()
		if err != nil {
			log.Fatal(err)
		}
		smart, err := w.Run(plan)
		if err != nil {
			log.Fatal(err)
		}

		// Naive: first-come first-served under the reactive governor
		// (the "random" policy's dispatcher with a fixed seed behaves as
		// an arrival-order scheduler here).
		_, naive, err := w.RunPolicy("random", int64(batchNo))
		if err != nil {
			log.Fatal(err)
		}

		smartTotal += float64(smart.Makespan)
		naiveTotal += float64(naive.Makespan)
		jobs += float64(n)
		fmt.Printf("batch %d (%d jobs: %v)\n", batchNo, n, picks)
		fmt.Printf("  HCS+ %7.1fs   FCFS %7.1fs   gain %+.0f%%\n",
			float64(smart.Makespan), float64(naive.Makespan),
			100*(float64(naive.Makespan)/float64(smart.Makespan)-1))
	}

	fmt.Printf("\nover %0.f jobs: HCS+ server time %.1fs vs FCFS %.1fs (throughput +%.0f%%)\n",
		jobs, smartTotal, naiveTotal, 100*(naiveTotal/smartTotal-1))
}
