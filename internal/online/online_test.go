package online

import (
	"sync"
	"testing"

	"corun/internal/apu"
	"corun/internal/core"
	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/units"
	"corun/internal/workload"
)

// coreSchedule aliases the plan type so hook signatures stay readable.
type coreSchedule = core.Schedule

var (
	charOnce sync.Once
	charVal  *model.Characterization
	charErr  error
)

func testOptions(t *testing.T, policy string) Options {
	t.Helper()
	cfg := apu.DefaultConfig()
	mem := memsys.Default()
	charOnce.Do(func() {
		charVal, charErr = model.Characterize(model.CharacterizeOptions{Cfg: cfg, Mem: mem})
	})
	if charErr != nil {
		t.Fatal(charErr)
	}
	return Options{Cfg: cfg, Mem: mem, Char: charVal, Cap: 15, Policy: policy, Seed: 1}
}

func TestGenerateArrivals(t *testing.T) {
	as, err := GenerateArrivals(20, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 20 {
		t.Fatalf("%d arrivals", len(as))
	}
	prev := units.Seconds(-1)
	for i, a := range as {
		if a.At < prev {
			t.Fatalf("arrival %d out of order", i)
		}
		prev = a.At
		if a.Prog == nil || a.Scale < 0.8 || a.Scale > 1.3 {
			t.Fatalf("arrival %d malformed: %+v", i, a)
		}
	}
	// Determinism.
	bs, err := GenerateArrivals(20, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range as {
		if as[i].At != bs[i].At || as[i].Label != bs[i].Label {
			t.Fatal("same seed gave a different stream")
		}
	}
	if _, err := GenerateArrivals(0, 30, 1); err == nil {
		t.Error("zero arrivals accepted")
	}
	if _, err := GenerateArrivals(5, -1, 1); err == nil {
		t.Error("negative gap accepted")
	}
}

func TestServeValidation(t *testing.T) {
	if _, err := Serve(Options{}, []Arrival{{}}); err == nil {
		t.Error("empty options accepted")
	}
	opts := testOptions(t, "hcs+")
	if _, err := Serve(opts, []Arrival{{Prog: nil, Scale: 1}}); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := Serve(opts, []Arrival{{Prog: workload.MustByName("lud"), Scale: 0}}); err == nil {
		t.Error("zero scale accepted")
	}
	noChar := opts
	noChar.Char = nil
	if _, err := Serve(noChar, []Arrival{{Prog: workload.MustByName("lud"), Scale: 1}}); err == nil {
		t.Error("model policy without characterization accepted")
	}
	r, err := Serve(opts, nil)
	if err != nil || len(r.Outcomes) != 0 {
		t.Errorf("empty stream: %v %v", r, err)
	}
}

func TestServeAllJobsFinish(t *testing.T) {
	opts := testOptions(t, "hcs+")
	as, err := GenerateArrivals(12, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Serve(opts, as)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Outcomes) != 12 {
		t.Fatalf("%d outcomes, want 12", len(r.Outcomes))
	}
	for _, o := range r.Outcomes {
		if o.Finished <= o.Arrived {
			t.Errorf("%s finished (%v) before arriving (%v)", o.Label, o.Finished, o.Arrived)
		}
		if o.Started < o.Arrived {
			t.Errorf("%s started before arriving", o.Label)
		}
		if o.Response() <= 0 {
			t.Errorf("%s non-positive response", o.Label)
		}
	}
	if r.Epochs < 1 {
		t.Error("no epochs ran")
	}
	if r.MeanResponse <= 0 || r.MaxResponse < r.MeanResponse {
		t.Errorf("response stats broken: mean %v max %v", r.MeanResponse, r.MaxResponse)
	}
	if r.EnergyJ <= 0 {
		t.Error("no energy accounted")
	}
}

// A saturated stream is served faster (lower mean response) by the
// co-scheduler than by random dispatch.
func TestHCSPlusBeatsRandomOnline(t *testing.T) {
	as, err := GenerateArrivals(16, 10, 5) // bursty: queues build up
	if err != nil {
		t.Fatal(err)
	}
	smart, err := Serve(testOptions(t, "hcs+"), as)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Serve(testOptions(t, "random"), as)
	if err != nil {
		t.Fatal(err)
	}
	if smart.MeanResponse >= naive.MeanResponse {
		t.Errorf("HCS+ mean response %v should beat random %v", smart.MeanResponse, naive.MeanResponse)
	}
	if smart.Done >= naive.Done {
		t.Errorf("HCS+ finishes at %v, random at %v", smart.Done, naive.Done)
	}
}

// Sparse arrivals degenerate to standalone runs under every policy.
func TestSparseArrivals(t *testing.T) {
	prog := workload.MustByName("hotspot")
	as := []Arrival{
		{At: 0, Prog: prog, Scale: 1, Label: "a"},
		{At: 500, Prog: prog, Scale: 1, Label: "b"},
	}
	for _, p := range []string{"hcs+", "random", "default"} {
		r, err := Serve(testOptions(t, p), as)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if r.Epochs != 2 {
			t.Errorf("%v: %d epochs, want 2 (idle gap between arrivals)", p, r.Epochs)
		}
		// The second job starts at its arrival, not earlier.
		for _, o := range r.Outcomes {
			if o.Label == "b" && o.Started < 500 {
				t.Errorf("%v: job b started at %v before its arrival", p, o.Started)
			}
		}
	}
}

// The plain-HCS policy also serves correctly (the branch without
// refinement).
func TestServePolicyHCS(t *testing.T) {
	opts := testOptions(t, "hcs")
	as, err := GenerateArrivals(6, 15, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Serve(opts, as)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Outcomes) != 6 {
		t.Fatalf("%d outcomes", len(r.Outcomes))
	}
}

// Unknown policies error cleanly.
func TestServeUnknownPolicy(t *testing.T) {
	opts := testOptions(t, "fifo")
	if _, err := Serve(opts, []Arrival{{Prog: workload.MustByName("lud"), Scale: 1}}); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestOptionsValidate(t *testing.T) {
	opts := testOptions(t, "hcs+")
	if pol, err := opts.check(); err != nil || pol != "hcs+" {
		t.Fatalf("check() = %q, %v", pol, err)
	}
	bad := opts
	bad.Policy = "fifo"
	if _, err := bad.check(); err == nil {
		t.Error("unknown policy validated")
	}
	bad = opts
	bad.Cap = -1
	if _, err := bad.check(); err == nil {
		t.Error("negative cap validated")
	}
	// Default dispatch ranks jobs with the predictive model, so it
	// needs the characterization too.
	bad = testOptions(t, "default")
	bad.Char = nil
	if _, err := bad.check(); err == nil {
		t.Error("default policy without characterization validated")
	}
	ok := testOptions(t, "random")
	ok.Char = nil
	if _, err := ok.check(); err != nil {
		t.Errorf("random policy without characterization rejected: %v", err)
	}
}

func TestPlanEpoch(t *testing.T) {
	opts := testOptions(t, "hcs+")
	batch := workload.Batch8()
	var sawPlan bool
	opts.Planned = func(plan *coreSchedule, predicted units.Seconds) {
		sawPlan = plan != nil && predicted > 0
	}
	ep, err := PlanEpoch(opts, batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Plan == nil || ep.Predicted <= 0 || ep.Result == nil {
		t.Fatalf("incomplete epoch: %+v", ep)
	}
	if !sawPlan {
		t.Error("Planned hook not called with a plan")
	}
	if len(ep.Result.Completions) != len(batch) {
		t.Errorf("%d completions, want %d", len(ep.Result.Completions), len(batch))
	}

	// Baselines have no plan but still call the hook.
	ropts := testOptions(t, "random")
	hookRan := false
	ropts.Planned = func(plan *coreSchedule, predicted units.Seconds) {
		hookRan = plan == nil && predicted == 0
	}
	rep, err := PlanEpoch(ropts, workload.Batch8(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan != nil || !hookRan {
		t.Errorf("random baseline: plan %v, hook ok %v", rep.Plan, hookRan)
	}

	if _, err := PlanEpoch(Options{}, batch, 1); err == nil {
		t.Error("empty options accepted")
	}
}

// The batch checks the facade's Prepare has always made are the
// pipeline's own, so PlanEpoch rejects the same batches — under a
// planned policy (through Predictor) and under the Random dispatcher,
// which never builds a predictor.
func TestPlanEpochRejectsMalformedBatch(t *testing.T) {
	misnumbered := workload.Batch8()
	misnumbered[2].ID = 7
	for name, batch := range map[string][]*workload.Instance{
		"empty batch":   nil,
		"nil instance":  {nil},
		"ID ≠ position": misnumbered,
	} {
		for _, pol := range []string{"hcs+", "random"} {
			if _, err := PlanEpoch(testOptions(t, pol), batch, 1); err == nil {
				t.Errorf("%s accepted under %s", name, pol)
			}
		}
	}
}
