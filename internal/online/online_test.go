package online

import (
	"math"
	"sync"
	"testing"

	"corun/internal/apu"
	"corun/internal/core"
	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/policy"
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

func TestNodeRun(t *testing.T) {
	opts := testOptions(t, "hcs+")
	batch := workload.Batch8()
	var sawPlan bool
	opts.Planned = func(plan *coreSchedule, predicted units.Seconds) {
		sawPlan = plan != nil && predicted > 0
	}
	var node Node
	node.Idle(100, opts.Cfg)
	plan, predicted, res, err := node.Run(opts, batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || predicted <= 0 || res == nil {
		t.Fatalf("incomplete epoch: plan %v, predicted %v, result %v", plan, predicted, res)
	}
	if !sawPlan {
		t.Error("Planned hook not called with a plan")
	}
	if len(res.Completions) != len(batch) {
		t.Errorf("%d completions, want %d", len(res.Completions), len(batch))
	}
	if got, want := node.Clock(), 100+res.Makespan; got != want {
		t.Errorf("clock %v after the epoch, want %v", got, want)
	}
	node.Idle(50, opts.Cfg)
	if got := node.Clock(); got != 100+res.Makespan {
		t.Errorf("Idle moved the clock back to %v", got)
	}

	// Baselines have no plan but still call the hook.
	ropts := testOptions(t, "random")
	hookRan := false
	ropts.Planned = func(plan *coreSchedule, predicted units.Seconds) {
		hookRan = plan == nil && predicted == 0
	}
	rplan, _, _, err := new(Node).Run(ropts, workload.Batch8(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rplan != nil || !hookRan {
		t.Errorf("random baseline: plan %v, hook ok %v", rplan, hookRan)
	}

	before := node.Clock()
	if _, _, _, err := node.Run(Options{}, batch, 1); err == nil {
		t.Error("empty options accepted")
	}
	if node.Clock() != before {
		t.Errorf("a failed epoch moved the clock %v -> %v", before, node.Clock())
	}
}

// The batch checks the facade's Prepare has always made are the
// pipeline's own, so Node.Run rejects the same batches — under a
// planned policy (through Predictor) and under the Random dispatcher,
// which never builds a predictor.
func TestNodeRunRejectsMalformedBatch(t *testing.T) {
	misnumbered := workload.Batch8()
	misnumbered[2].ID = 7
	for name, batch := range map[string][]*workload.Instance{
		"empty batch":   nil,
		"nil instance":  {nil},
		"ID ≠ position": misnumbered,
	} {
		for _, pol := range []string{"hcs+", "random"} {
			if _, _, _, err := new(Node).Run(testOptions(t, pol), batch, 1); err == nil {
				t.Errorf("%s accepted under %s", name, pol)
			}
		}
	}
}

// tripAt is opts on its machine with the trip point moved to tmaxC.
func tripAt(opts Options, tmaxC float64) Options {
	tp := opts.Cfg.Thermal
	tp.TMaxC = tmaxC
	opts.Cfg = opts.Cfg.WithThermal(tp)
	return opts
}

// Back-to-back epochs run on one heatsink: each starts on the state the
// previous one ended in, and is — bit for bit — the policy's own run of
// the batch from that start, planned at the budget cap the node reports
// and executed under the configured cap. At the 45 °C trip point the
// budget cap lies in [P_sus, 15) W; on the preset's 95 °C it is 15 W.
func TestNodeCarriesHeat(t *testing.T) {
	for _, tc := range []struct {
		tmaxC  float64
		capped bool
	}{{45, true}, {95, false}} {
		opts := tripAt(testOptions(t, "hcs+"), tc.tmaxC)
		var node Node
		prev := opts.Cfg.Cold()
		for epoch := int64(1); epoch <= 4; epoch++ {
			if got := node.Heat(opts.Cfg); got != prev {
				t.Fatalf("T_max %v epoch %d starts on %+v, the last one ended on %+v", tc.tmaxC, epoch, got, prev)
			}
			_, predicted, res, err := node.Run(opts, workload.Batch8(), epoch)
			if err != nil {
				t.Fatal(err)
			}
			planCap := node.PlanCap()
			if sus := opts.Cfg.Thermal.SustainedPower(); tc.capped != (planCap < opts.Cap) || planCap < min(sus, opts.Cap) {
				t.Errorf("T_max %v epoch %d planned at %v W (P_sus %v)", tc.tmaxC, epoch, planCap, sus)
			}

			batch := workload.Batch8()
			pred, err := opts.Predictor(batch)
			if err != nil {
				t.Fatal(err)
			}
			at := opts
			at.Cap = planCap
			cx, err := at.Context(pred)
			if err != nil {
				t.Fatal(err)
			}
			start := prev
			exec := core.ExecOptions{Cfg: opts.Cfg, Mem: opts.Mem, Cap: opts.Cap, Start: &start}
			_, wantPredicted, want, err := policy.Run("hcs+", cx, batch, exec, policy.Options{Seed: epoch}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if predicted != wantPredicted || res.Makespan != want.Makespan || res.EnergyJ != want.EnergyJ || res.End != want.End {
				t.Errorf("T_max %v epoch %d: node ran %v s, %v J to %+v; the policy from that start %v s, %v J to %+v",
					tc.tmaxC, epoch, res.Makespan, res.EnergyJ, res.End, want.Makespan, want.EnergyJ, want.End)
			}
			prev = res.End
		}
	}
}

// An idle wait spends the heatsink's heat at the machine's idle power —
// exactly Step(T, IdlePower, dt) — and releases the throttle's ceilings
// once the node has cooled below TMaxC - HysteresisC, not before. A
// wait into the past changes nothing.
func TestNodeIdleCools(t *testing.T) {
	cfg := tripAt(testOptions(t, "hcs+"), 45).Cfg
	tp := cfg.Thermal
	var node Node
	throttled := apu.Heat{TempC: 46, Ceil: [apu.NumDevices]int{3, 2}}
	node.Restore(100, &throttled)

	node.Idle(100.1, cfg)
	h := node.Heat(cfg)
	if want := tp.Step(46, cfg.IdlePower, 100.1-100); math.Float64bits(h.TempC) != math.Float64bits(want) || h.Ceil != throttled.Ceil {
		t.Errorf("0.1 s idle: %+v, want %v °C and the ceilings %v kept", h, want, throttled.Ceil)
	}
	node.Idle(150, cfg)
	got := node.Heat(cfg)
	if want := tp.Step(h.TempC, cfg.IdlePower, 150-100.1); math.Float64bits(got.TempC) != math.Float64bits(want) || got.Ceil != cfg.Cold().Ceil {
		t.Errorf("49.9 s idle: %+v, want %v °C and the ceilings released", got, want)
	}
	if got.TempC >= tp.TMaxC-tp.HysteresisC || node.Clock() != 150 {
		t.Errorf("after the wait: %v °C at clock %v", got.TempC, node.Clock())
	}
	node.Idle(120, cfg)
	if node.Heat(cfg) != got || node.Clock() != 150 {
		t.Errorf("a wait into the past moved the node to %+v at %v", node.Heat(cfg), node.Clock())
	}
}
