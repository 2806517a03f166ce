package fault

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

// The breaker states. Closed passes every operation; Open sheds all
// of them until the cooldown elapses; HalfOpen lets exactly one probe
// through — its outcome closes or re-opens the circuit.
const (
	BreakerClosed BreakerState = iota
	BreakerHalfOpen
	BreakerOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// Breaker is a consecutive-failure circuit breaker. It trips open
// after Threshold consecutive Failure calls, sheds every Allow for
// the cooldown, then half-opens: one probe is allowed through, and
// its Success/Failure closes or re-opens the circuit. All methods are
// safe for concurrent use.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	state   BreakerState
	fails   int       // consecutive failures while closed
	until   time.Time // open expires at this instant
	probing bool      // the half-open probe slot is taken

	onChange func(from, to BreakerState)
}

// NewBreaker builds a closed breaker that trips after threshold
// consecutive failures (minimum 1) and stays open for cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// OnChange registers a state-transition observer. It runs outside the
// breaker's lock on the goroutine that caused the transition.
func (b *Breaker) OnChange(fn func(from, to BreakerState)) {
	b.mu.Lock()
	b.onChange = fn
	b.mu.Unlock()
}

// SetClock overrides the breaker's clock (tests only).
func (b *Breaker) SetClock(now func() time.Time) {
	b.mu.Lock()
	b.now = now
	b.mu.Unlock()
}

// Allow reports whether an operation may proceed: always while
// closed, never while open within the cooldown, and once per
// half-open window (the probe).
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	switch b.state {
	case BreakerClosed:
		b.mu.Unlock()
		return true
	case BreakerOpen:
		if b.now().Before(b.until) {
			b.mu.Unlock()
			return false
		}
		notify := b.transition(BreakerHalfOpen)
		b.probing = true
		b.mu.Unlock()
		notify()
		return true
	default: // half-open
		if b.probing {
			b.mu.Unlock()
			return false
		}
		b.probing = true
		b.mu.Unlock()
		return true
	}
}

// Success records a successful operation: it closes the circuit from
// half-open and resets the consecutive-failure count.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.fails = 0
	b.probing = false
	notify := func() {}
	if b.state != BreakerClosed {
		notify = b.transition(BreakerClosed)
	}
	b.mu.Unlock()
	notify()
}

// Failure records a failed operation: the threshold'th consecutive
// failure trips the circuit open, and a failed half-open probe
// re-opens it for another cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	notify := func() {}
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.until = b.now().Add(b.cooldown)
			notify = b.transition(BreakerOpen)
		}
	case BreakerHalfOpen:
		b.probing = false
		b.until = b.now().Add(b.cooldown)
		notify = b.transition(BreakerOpen)
	}
	b.mu.Unlock()
	notify()
}

// State returns the breaker's current position. An expired cooldown
// still reports Open until an Allow claims the half-open probe: the
// circuit recovers through a successful operation, not by time alone.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// OpenUntil returns when the current open window ends, or the zero
// time if the circuit is not open.
func (b *Breaker) OpenUntil() time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerOpen {
		return time.Time{}
	}
	return b.until
}

// transition moves to the new state and returns the deferred observer
// call; the caller invokes it after releasing the lock.
func (b *Breaker) transition(to BreakerState) func() {
	from := b.state
	b.state = to
	fn := b.onChange
	if fn == nil || from == to {
		return func() {}
	}
	return func() { fn(from, to) }
}
