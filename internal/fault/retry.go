package fault

import (
	"errors"
	"math/rand"
	"time"
)

// Backoff is a bounded retry schedule: exponential growth from Base
// toward Max with deterministic seeded jitter. The zero value retries
// nothing (one attempt, no sleeps).
type Backoff struct {
	// Base is the first retry delay; Factor grows it per attempt
	// (default 2) and Max caps it.
	Base   time.Duration
	Max    time.Duration
	Factor float64

	// Jitter spreads each delay uniformly over [1-Jitter, 1+Jitter]
	// times its nominal value, drawn from a PRNG seeded with Seed so a
	// given schedule replays identically. 0 disables jitter.
	Jitter float64
	Seed   int64

	// Attempts is the total number of tries, including the first;
	// values below 1 mean a single attempt.
	Attempts int

	// Sleep is the delay function; nil means time.Sleep. Tests inject
	// a recorder here.
	Sleep func(time.Duration)
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps an error to tell Backoff.Run to stop retrying and
// return it (unwrapped) immediately.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// Run calls op until it succeeds, returns a Permanent error, or the
// attempt budget is spent, sleeping the backoff schedule between
// tries. op receives the zero-based attempt index. The last error is
// returned.
func (b Backoff) Run(op func(attempt int) error) error {
	attempts := b.Attempts
	if attempts < 1 {
		attempts = 1
	}
	sleep := b.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	// Only a retry sleep reads the jitter PRNG, so the first retry
	// builds it: a first-try success — every healthy journal commit —
	// allocates nothing.
	var rng *rand.Rand
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if rng == nil && b.Jitter > 0 {
				rng = rand.New(rand.NewSource(b.Seed))
			}
			sleep(b.delay(attempt-1, rng))
		}
		err = op(attempt)
		if err == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return pe.err
		}
	}
	return err
}

// delay is the nominal backoff for the i-th retry (0-based), jittered.
func (b Backoff) delay(i int, rng *rand.Rand) time.Duration {
	factor := b.Factor
	if factor <= 1 {
		factor = 2
	}
	d := float64(b.Base)
	for k := 0; k < i; k++ {
		d *= factor
		if b.Max > 0 && d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if b.Max > 0 && d > float64(b.Max) {
		d = float64(b.Max)
	}
	if rng != nil {
		d *= 1 - b.Jitter + 2*b.Jitter*rng.Float64()
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}
