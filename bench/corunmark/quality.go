package main

import (
	"fmt"
	"sort"

	"corun"
	"corun/bench/corunmark/wire"
)

// batchJob is one member of a batch the daemon formed, as its job
// table reports it.
type batchJob = wire.BatchJob

type quality struct {
	ratio   float64 // Σ simulated makespan ÷ Σ lower bound
	epochs  int
	batches [][]batchJob // every boundEvery-th epoch's batch, for the stage replay
}

// scheduleQuality reads schedule quality off the job tables: jobs are
// grouped by the epoch that served them, an epoch's makespan is its
// last finish minus its first start on the node's simulated clock,
// and every qualityEvery-th of the epochs made only of measured jobs
// is compared with the facade's lower bound for the same (program, scale) batch at
// the reference cap. For the fleet, whose live caps move, that cap is
// a fixed reference, not the cap in force.
func scheduleQuality(tables [][]jobView, measured map[string]bool) (*quality, error) {
	// The facade at the reference cap: where every bound comes from.
	sys, err := corun.NewSystem(corun.WithPowerCap(capWatts))
	if err != nil {
		return nil, err
	}
	q := &quality{}
	var makespans, bounds float64
	for _, table := range tables {
		// An epoch counts when every job in it belongs to the measured
		// window (epoch 0 holds jobs that never ran).
		byEpoch := map[int][]jobView{}
		mixed := map[int]bool{}
		for _, j := range table {
			byEpoch[j.Epoch] = append(byEpoch[j.Epoch], j)
			if !measured[j.ID] || j.Epoch == 0 {
				mixed[j.Epoch] = true
			}
		}
		var epochs []int
		for ep := range byEpoch {
			if !mixed[ep] {
				epochs = append(epochs, ep)
			}
		}
		sort.Ints(epochs)
		for k := 0; k < len(epochs); k += qualityEvery {
			jobs := byEpoch[epochs[k]]
			batch := make([]batchJob, len(jobs))
			first, last := jobs[0].StartedSimS, jobs[0].FinishedSimS
			for i, j := range jobs {
				batch[i] = batchJob{Program: j.Program, Scale: j.Scale}
				first, last = min(first, j.StartedSimS), max(last, j.FinishedSimS)
			}
			instances, err := wire.Instances(batch)
			if err != nil {
				return nil, err
			}
			w, err := sys.Prepare(instances)
			if err != nil {
				return nil, err
			}
			lb, err := w.LowerBound()
			if err != nil {
				return nil, err
			}
			makespans += last - first
			bounds += float64(lb)
			q.epochs++
			if k%boundEvery == 0 {
				q.batches = append(q.batches, batch)
			}
		}
	}
	if q.epochs == 0 {
		return nil, fmt.Errorf("no epoch of measured jobs to compare with its bound")
	}
	q.ratio = makespans / bounds
	return q, nil
}
