// Planning benchmarks: each iteration plans the paper's 8-job batch on a
// fresh scheduling context, as every corund epoch does, so what carries
// from one iteration to the next is exactly what carries from one epoch
// to the next — the characterization's pair tables, which the first
// iteration fills — and nothing of the context's own memos (frequency
// choices, minimal pair degradations, predicted makespans). Run via
// `make bench`:
//
//	go test -run='^$' -bench=. -benchmem ./internal/policy/
package policy_test

import (
	"testing"

	"corun/internal/model"
	"corun/internal/policy"
	"corun/internal/workload"
)

// planLoop replans the 8-job batch b.N times, one fresh predictor and
// context per iteration.
func planLoop(b *testing.B, name string) {
	b.Helper()
	first := predictorFor(b, workload.Batch8())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred, err := model.NewPredictor(first.Char, first.Prof)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := policy.Plan(name, contextOver(b, pred), policy.Options{Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHCSPlusPlanning replans HCS+, the daemon's default policy.
func BenchmarkHCSPlusPlanning(b *testing.B) { planLoop(b, "hcs+") }

// BenchmarkOptimal8 runs the exhaustive optimal search. Its hot loop
// reads the context's per-pair frequency memo, so it chiefly shows that
// the shared tables cost the fanned-out search nothing.
func BenchmarkOptimal8(b *testing.B) { planLoop(b, "optimal") }
