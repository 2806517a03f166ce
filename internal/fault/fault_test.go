package fault

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestHitDisarmedIsNil(t *testing.T) {
	r := NewRegistry()
	var events []Event
	r.Subscribe(func(e Event) { events = append(events, e) })
	for i := 0; i < 100; i++ {
		if err := r.Hit("journal/fsync"); err != nil {
			t.Fatalf("disarmed hit returned %v", err)
		}
	}
	if len(events) != 0 {
		t.Fatalf("disarmed registry emitted events %+v", events)
	}
	// A nil registry is the daemon's without -fault-spec: disarmed.
	if err := (*Registry)(nil).Hit("journal/fsync"); err != nil {
		t.Fatalf("nil registry hit returned %v", err)
	}
}

func TestErrorScheduleEveryAfterTimes(t *testing.T) {
	r := NewRegistry()
	var hits, injected int
	r.Subscribe(func(e Event) {
		hits++
		if e.Injected {
			injected++
		}
	})
	if err := r.Arm(Rule{Site: "s", Kind: KindError, Every: 3, After: 2, Times: 2}); err != nil {
		t.Fatal(err)
	}
	// Hits 1..2 are skipped by After; eligible hits count from 3, and
	// every 3rd eligible hit fires: hits 5 and 8, then Times exhausts.
	var fired []int
	for i := 1; i <= 12; i++ {
		if err := r.Hit("s"); err != nil {
			if !IsInjected(err) {
				t.Fatalf("hit %d: %v is not an injected error", i, err)
			}
			fired = append(fired, i)
		}
	}
	if want := []int{5, 8}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired on hits %v, want %v", fired, want)
	}
	// The exhausted rule keeps counting hits but injects no more.
	if hits != 12 || injected != 2 {
		t.Fatalf("subscriber saw %d hits, %d injected; want 12, 2", hits, injected)
	}
}

func TestProbabilityGateIsSeeded(t *testing.T) {
	pattern := func(seed int64) []bool {
		r := NewRegistry()
		if err := r.Arm(Rule{Site: "s", Kind: KindError, P: 0.5, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = r.Hit("s") != nil
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different injection patterns")
	}
	if reflect.DeepEqual(a, pattern(7)) {
		t.Fatal("different seeds produced the same 64-hit pattern")
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("p=0.5 fired %d/%d times", fired, len(a))
	}
}

func TestLatencyInjection(t *testing.T) {
	r := NewRegistry()
	var slept []time.Duration
	r.sleep = func(d time.Duration) { slept = append(slept, d) }
	if err := r.Arm(Rule{Site: "s", Kind: KindLatency, Delay: 10 * time.Millisecond, Every: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := r.Hit("s"); err != nil {
			t.Fatalf("latency hit returned error %v", err)
		}
	}
	if want := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond}; !reflect.DeepEqual(slept, want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
}

func TestPanicInjection(t *testing.T) {
	r := NewRegistry()
	if err := r.Arm(Rule{Site: "s", Kind: KindPanic, Msg: "boom"}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("no panic")
		}
		fe, ok := rec.(*Error)
		if !ok || fe.Site != "s" || fe.Msg != "boom" {
			t.Fatalf("panicked with %#v", rec)
		}
	}()
	_ = r.Hit("s")
}

func TestSubscribeAndDisarm(t *testing.T) {
	r := NewRegistry()
	var events []Event
	r.Subscribe(func(e Event) { events = append(events, e) })
	if err := r.Arm(Rule{Site: "s", Kind: KindError, Every: 2}); err != nil {
		t.Fatal(err)
	}
	_ = r.Hit("s")
	_ = r.Hit("s")
	_ = r.Hit("other") // unarmed site: no event
	want := []Event{{Site: "s", Injected: false}, {Site: "s", Injected: true}}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("events %+v, want %+v", events, want)
	}
	r.Disarm()
	if err := r.Hit("s"); err != nil {
		t.Fatalf("hit after disarm: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("disarmed hit emitted an event: %+v", events)
	}
}

func TestIsInjected(t *testing.T) {
	err := &Error{Site: "s"}
	if !IsInjected(err) {
		t.Fatal("direct injected error not recognized")
	}
	if !IsInjected(errorsJoin("wrapped: ", err)) {
		t.Fatal("wrapped injected error not recognized")
	}
	if IsInjected(errors.New("organic")) {
		t.Fatal("organic error misclassified")
	}
}

func errorsJoin(prefix string, err error) error {
	return &wrapped{prefix: prefix, err: err}
}

type wrapped struct {
	prefix string
	err    error
}

func (w *wrapped) Error() string { return w.prefix + w.err.Error() }
func (w *wrapped) Unwrap() error { return w.err }

func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec("journal/fsync=error(every=3,times=5,msg=disk gone); server/epoch = latency(50ms, p=0.5, seed=42)")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Site: "journal/fsync", Kind: KindError, Every: 3, Times: 5, Msg: "disk gone"},
		{Site: "server/epoch", Kind: KindLatency, Delay: 50 * time.Millisecond, P: 0.5, Seed: 42},
	}
	if !reflect.DeepEqual(rules, want) {
		t.Fatalf("parsed %+v, want %+v", rules, want)
	}
	// The positional forms: a bare duration for latency, a bare
	// message for error/panic; kinds without an argument list.
	rules, err = ParseSpec("a=latency(1ms);b=error(oops);c=panic")
	if err != nil {
		t.Fatal(err)
	}
	want = []Rule{
		{Site: "a", Kind: KindLatency, Delay: time.Millisecond},
		{Site: "b", Kind: KindError, Msg: "oops"},
		{Site: "c", Kind: KindPanic},
	}
	if !reflect.DeepEqual(rules, want) {
		t.Fatalf("parsed %+v, want %+v", rules, want)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"",                      // empty
		";;",                    // only separators
		"noequals",              // no site=kind
		"=error",                // empty site
		"s=explode",             // unknown kind
		"s=latency",             // latency without a delay
		"s=latency(xyz)",        // bad duration
		"s=error(every=x)",      // bad count
		"s=error(p=2)",          // probability out of range
		"s=error(bogus=1)",      // unknown key
		"s=error(every=1",       // unclosed args
		"s=error(seed=notanum)", // bad seed
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("spec %q parsed without error", spec)
		}
	}
}

// FuzzParseSpec holds the -fault-spec grammar, input from outside the
// process, to two promises: ParseSpec never panics, and every spec it
// accepts arms a fresh registry.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"journal/fsync=error(every=3,times=5,msg=disk gone); server/epoch = latency(50ms, p=0.5, seed=42)",
		"journal/fsync=drop(after=2,times=24)",
		"a=latency(1ms);b=error(oops);c=panic",
		"s=error(every=1",
		"s=latency(delay=-1s)",
		";;",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if err := NewRegistry().Arm(rules...); err != nil {
			t.Fatalf("ParseSpec(%q) accepted %+v, which Arm rejects: %v", spec, rules, err)
		}
	})
}
