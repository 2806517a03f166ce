package core

import (
	"math/rand"
	"testing"

	"corun/internal/workload"
)

// Annealing never returns a schedule worse than its input on the
// predicted metric.
func TestAnnealNeverWorsens(t *testing.T) {
	batch := workload.Batch16()
	cx, _ := testContext(t, batch, 15)
	s, err := cx.HCS(HCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := cx.PredictedMakespan(s)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 3; seed++ {
		out, got, err := cx.Anneal(s, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got > base+1e-9 {
			t.Errorf("seed %d: anneal worsened %v -> %v", seed, base, got)
		}
		if err := out.Validate(len(batch)); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// Annealing from a random starting point approaches the refined HCS+
// quality: the cheap refinement leaves little on the table.
func TestAnnealVsRefine(t *testing.T) {
	batch := workload.Batch16()
	cx, _ := testContext(t, batch, 15)
	hcs, err := cx.HCS(HCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, refinedT, err := cx.Refine(hcs, RefineOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, annealT, err := cx.Anneal(hcs, 7)
	if err != nil {
		t.Fatal(err)
	}
	// The heavy search may beat the cheap one, but not by a lot — the
	// paper's linear refinement must remain competitive.
	if float64(refinedT) > float64(annealT)*1.15 {
		t.Errorf("refinement (%v) trails annealing (%v) by >15%%", refinedT, annealT)
	}
}

func TestGeneticProducesValidCompetitiveSchedules(t *testing.T) {
	batch := workload.Batch16()
	cx, _ := testContext(t, batch, 15)
	hcs, err := cx.HCS(HCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hcsT, err := cx.PredictedMakespan(hcs)
	if err != nil {
		t.Fatal(err)
	}
	s, got, err := cx.Genetic(GeneticOptions{Seed: 3, SeedSchedule: hcs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(len(batch)); err != nil {
		t.Fatal(err)
	}
	// Seeded with HCS and elitist, the GA cannot end worse than HCS.
	if got > hcsT+1e-9 {
		t.Errorf("GA (%v) worse than its seed (%v)", got, hcsT)
	}
}

func TestGeneticWithoutSeedSchedule(t *testing.T) {
	batch := workload.Batch8()
	cx, _ := testContext(t, batch, 15)
	s, got, err := cx.Genetic(GeneticOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(len(batch)); err != nil {
		t.Fatal(err)
	}
	if got <= 0 {
		t.Error("non-positive predicted makespan")
	}
}

func TestGeneticEmptyBatch(t *testing.T) {
	cx, _ := testContext(t, nil, 0)
	s, got, err := cx.Genetic(GeneticOptions{Seed: 1})
	if err != nil || got != 0 || len(s.Jobs()) != 0 {
		t.Errorf("empty GA: %v %v %v", s, got, err)
	}
}

// Determinism: same seed, same result.
func TestMetaheuristicsDeterministic(t *testing.T) {
	batch := workload.Batch8()
	cx, _ := testContext(t, batch, 15)
	hcs, err := cx.HCS(HCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, a1, err := cx.Anneal(hcs, 9)
	if err != nil {
		t.Fatal(err)
	}
	_, a2, err := cx.Anneal(hcs, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Errorf("anneal not deterministic: %v vs %v", a1, a2)
	}
	_, g1, err := cx.Genetic(GeneticOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	_, g2, err := cx.Genetic(GeneticOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Errorf("GA not deterministic: %v vs %v", g1, g2)
	}
}

// Mutations preserve the job multiset.
func TestMutateSchedulePreservesJobs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := &Schedule{CPUOrder: []int{0, 1, 2}, GPUOrder: []int{3, 4}, Exclusive: map[int]bool{}}
	for k := 0; k < 200; k++ {
		mutateSchedule(s, rng)
		if err := s.Validate(5); err != nil {
			t.Fatalf("after %d mutations: %v (%v)", k+1, err, s)
		}
	}
}

// Crossover children cover each job exactly once.
func TestCrossoverValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomSchedule(10, rng)
	b := randomSchedule(10, rng)
	for k := 0; k < 50; k++ {
		child := crossover(a, b, 10, rng)
		if err := child.Validate(10); err != nil {
			t.Fatalf("crossover %d: %v", k, err)
		}
	}
}
