package policy_test

// Shared fixtures: the one-time characterization pass plus builders
// for the prediction pipeline and scheduling contexts, used by the
// registry tests, the -race engine test, and the planning benchmarks
// alike.

import (
	"sync"
	"testing"

	"corun/internal/apu"
	"corun/internal/core"
	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/profile"
	"corun/internal/units"
	"corun/internal/workload"
)

// testCap is the paper's default 15 W package cap.
const testCap = units.Watts(15)

var pipe struct {
	once sync.Once
	cfg  *apu.Config
	mem  *memsys.Model
	char *model.Characterization
	err  error
}

// characterize runs the offline characterization once and shares it
// across every test and benchmark in the package.
func characterize(tb testing.TB) (*apu.Config, *memsys.Model, *model.Characterization) {
	tb.Helper()
	pipe.once.Do(func() {
		pipe.cfg = apu.DefaultConfig()
		pipe.mem = memsys.Default()
		pipe.char, pipe.err = model.Characterize(model.CharacterizeOptions{Cfg: pipe.cfg, Mem: pipe.mem})
	})
	if pipe.err != nil {
		tb.Fatal(pipe.err)
	}
	return pipe.cfg, pipe.mem, pipe.char
}

// testCfg returns the shared machine config.
func testCfg(tb testing.TB) *apu.Config {
	tb.Helper()
	cfg, _, _ := characterize(tb)
	return cfg
}

// predictorFor builds the prediction pipeline for a batch.
func predictorFor(tb testing.TB, batch []*workload.Instance) *model.Predictor {
	tb.Helper()
	cfg, mem, char := characterize(tb)
	prof, err := profile.Collect(cfg, mem, batch)
	if err != nil {
		tb.Fatal(err)
	}
	pred, err := model.NewPredictor(char, prof)
	if err != nil {
		tb.Fatal(err)
	}
	return pred
}

// interpolated is the predictor without its tables: Degradation is the
// per-query interpolation times the calibrated factor, and nothing
// beyond core.Oracle's five methods is offered, so a context over it
// takes core's per-point path — the one the ground-truth oracle takes —
// and keeps nothing in the characterization.
type interpolated struct {
	core.Oracle
	p     *model.Predictor
	scale func(i int, d apu.Device) float64
}

func (o interpolated) Degradation(i int, dev apu.Device, f, j, g int) float64 {
	return o.p.Interpolate(i, dev, f, j, g) * o.scale(i, dev)
}

// perPoint returns p as an oracle without tables.
func perPoint(p *model.Predictor) core.Oracle { return interpolated{p, p, p.Scale} }

// amplified is a predictor with every calibrated factor k times its own:
// still an oracle with tables (the embedded predictor's rows and feasible
// lists), whose Degradation is the rows times the amplified factor. Far
// from 1, the factors decide which pairs the step-1 partition finds
// beneficial, so a planner loop that skips or swaps a factor changes the
// partition, not only the frequency choices.
type amplified struct {
	*model.Predictor
	k float64
}

func (a amplified) Scale(i int, d apu.Device) float64 { return a.Predictor.Scale(i, d) * a.k }

func (a amplified) Degradation(i int, dev apu.Device, f, j, g int) float64 {
	return a.Interpolate(i, dev, f, j, g) * a.Scale(i, dev)
}

// contextOver wraps an oracle in a fresh scheduling context under the
// test cap. A fresh context means fresh frequency/makespan memo tables:
// the only state carried between contexts is whatever the oracle itself
// caches.
func contextOver(tb testing.TB, o core.Oracle) *core.Context {
	tb.Helper()
	cfg, _, _ := characterize(tb)
	cx, err := core.NewContext(o, cfg, testCap)
	if err != nil {
		tb.Fatal(err)
	}
	return cx
}

// testBatch is the 6-job planning batch used across the tests: small
// enough for the optimal search, varied enough to exercise every
// policy's branches.
func testBatch(tb testing.TB) []*workload.Instance {
	tb.Helper()
	batch, err := workload.Subset("streamcluster", "cfd", "dwt2d", "hotspot", "srad", "lud")
	if err != nil {
		tb.Fatal(err)
	}
	return batch
}
