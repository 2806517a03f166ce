package fault

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestBackoffRetriesUntilSuccess(t *testing.T) {
	var slept []time.Duration
	b := Backoff{
		Base: 10 * time.Millisecond, Max: 40 * time.Millisecond,
		Attempts: 5,
		Sleep:    func(d time.Duration) { slept = append(slept, d) },
	}
	calls := 0
	err := b.Run(context.Background(), func(attempt int) error {
		if attempt != calls {
			t.Fatalf("attempt %d on call %d", attempt, calls)
		}
		calls++
		if calls < 4 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 4 {
		t.Fatalf("err %v after %d calls", err, calls)
	}
	// No jitter: the exponential schedule is exact, capped at Max.
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if !reflect.DeepEqual(slept, want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
}

func TestBackoffExhaustsAttempts(t *testing.T) {
	sentinel := errors.New("still broken")
	calls := 0
	b := Backoff{Base: time.Millisecond, Attempts: 3, Sleep: func(time.Duration) {}}
	if err := b.Run(context.Background(), func(int) error { calls++; return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err %v, want %v", err, sentinel)
	}
	if calls != 3 {
		t.Fatalf("%d calls, want 3", calls)
	}
}

func TestBackoffPermanentStopsImmediately(t *testing.T) {
	sentinel := errors.New("closed")
	calls := 0
	b := Backoff{Base: time.Millisecond, Attempts: 5, Sleep: func(time.Duration) {}}
	err := b.Run(context.Background(), func(int) error { calls++; return Permanent(sentinel) })
	if err != sentinel {
		t.Fatalf("err %v, want the unwrapped sentinel", err)
	}
	if calls != 1 {
		t.Fatalf("%d calls, want 1", calls)
	}
}

func TestBackoffJitterIsSeeded(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		var slept []time.Duration
		b := Backoff{
			Base: 10 * time.Millisecond, Max: time.Second, Jitter: 0.5, Seed: seed,
			Attempts: 6, Sleep: func(d time.Duration) { slept = append(slept, d) },
		}
		_ = b.Run(context.Background(), func(int) error { return errors.New("x") })
		return slept
	}
	a, b := schedule(42), schedule(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different jitter schedules")
	}
	if reflect.DeepEqual(a, schedule(7)) {
		t.Fatal("different seeds produced the same jitter schedule")
	}
	for i, d := range a {
		nominal := 10 * time.Millisecond << i
		lo, hi := nominal/2, nominal+nominal/2
		if d < lo || d > hi {
			t.Fatalf("delay %d = %v outside [%v, %v]", i, d, lo, hi)
		}
	}
}

func TestBackoffFirstTrySuccessAllocatesNothing(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Max: time.Second, Jitter: 0.2, Seed: 1, Attempts: 4}
	allocs := testing.AllocsPerRun(100, func() {
		if err := b.Run(context.Background(), func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("first-try success allocated %v times per Run, want 0", allocs)
	}
}

// TestBackoffStopsWhenContextEnds: a context that ends during a retry
// sleep ends the retries there, and Run returns the last attempt's
// error, not the context's — the attempt is the outcome.
func TestBackoffStopsWhenContextEnds(t *testing.T) {
	sentinel := errors.New("still broken")
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	b := Backoff{Base: time.Hour, Attempts: 4}
	err := b.Run(ctx, func(int) error {
		calls++
		cancel()
		return sentinel
	})
	if err != sentinel || calls != 1 {
		t.Fatalf("err %v after %d calls, want the attempt's error after 1", err, calls)
	}
}

func TestBackoffZeroValueSingleAttempt(t *testing.T) {
	calls := 0
	err := Backoff{}.Run(context.Background(), func(int) error { calls++; return errors.New("x") })
	if err == nil || calls != 1 {
		t.Fatalf("err %v after %d calls", err, calls)
	}
}

// fakeClock is a manually advanced clock for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func mustState(t *testing.T, b *Breaker, want BreakerState) {
	t.Helper()
	if got := b.State(); got != want {
		t.Fatalf("breaker state %v, want %v", got, want)
	}
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(3, time.Second)
	b.SetClock(clk.now)
	var transitions []string
	b.OnChange(func(from, to BreakerState) {
		transitions = append(transitions, from.String()+">"+to.String())
	})
	// trips counts the recorded transitions into Open.
	trips := func() int {
		n := 0
		for _, tr := range transitions {
			if strings.HasSuffix(tr, ">open") {
				n++
			}
		}
		return n
	}

	// Two failures stay closed; the third trips it open.
	b.Failure()
	b.Failure()
	mustState(t, b, BreakerClosed)
	if !b.Allow() {
		t.Fatal("closed breaker denied an operation")
	}
	b.Failure()
	mustState(t, b, BreakerOpen)
	if trips() != 1 {
		t.Fatalf("trips %d (%v), want 1", trips(), transitions)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed an operation inside the cooldown")
	}
	if until := b.OpenUntil(); !until.Equal(clk.t.Add(time.Second)) {
		t.Fatalf("open until %v, want cooldown end", until)
	}

	// Cooldown elapses: exactly one probe gets through.
	clk.advance(time.Second + time.Millisecond)
	if !b.Allow() {
		t.Fatal("no probe after the cooldown")
	}
	mustState(t, b, BreakerHalfOpen)
	if b.Allow() {
		t.Fatal("second concurrent probe allowed")
	}

	// A failed probe re-opens for another full cooldown.
	b.Failure()
	mustState(t, b, BreakerOpen)
	if trips() != 2 {
		t.Fatalf("trips %d (%v), want 2", trips(), transitions)
	}
	clk.advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("no probe after the second cooldown")
	}
	b.Success()
	mustState(t, b, BreakerClosed)
	if !b.Allow() {
		t.Fatal("closed breaker denied an operation after recovery")
	}

	want := []string{
		"closed>open", "open>half-open", "half-open>open",
		"open>half-open", "half-open>closed",
	}
	if !reflect.DeepEqual(transitions, want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b := NewBreaker(2, time.Second)
	b.Failure()
	b.Success()
	b.Failure()
	mustState(t, b, BreakerClosed)
	b.Failure()
	mustState(t, b, BreakerOpen)
}

func TestBreakerStaysOpenWithoutAProbe(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(1, time.Second)
	b.SetClock(clk.now)
	b.Failure()
	clk.advance(time.Hour)
	// Time alone never closes the circuit: recovery needs a
	// successful probe.
	mustState(t, b, BreakerOpen)
	if !b.Allow() {
		t.Fatal("probe denied after cooldown")
	}
	mustState(t, b, BreakerHalfOpen)
}
