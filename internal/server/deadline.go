package server

// The request deadline on the journaling routes, shared with the fleet
// coordinator (which wraps every route in it): a context on the
// request, run on the connection's own goroutine, that arms no timer
// until something waits on it.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Deadline runs h under a request deadline of d on the connection's own
// goroutine: the request's context times out after d, and a request
// with a body also gets the connection's read deadline at the same
// instant, because a context does not bound reading the body. The read
// deadline is lifted once the body has been read to its end — left in
// place it would also bound the server's own read of the connection
// behind the handler, and that read failing ends the context of every
// later request on the connection. A handler that finds its context
// ended answers for itself (writeDeadline here, the coordinator's own
// in internal/fleet); nothing runs on after the response.
func Deadline(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := &deadlineCtx{Context: r.Context(), at: time.Now().Add(d)}
		defer ctx.release()
		r = r.WithContext(ctx)
		if r.ContentLength != 0 {
			if rc := http.NewResponseController(w); rc.SetReadDeadline(ctx.at) == nil {
				r.Body = &deadlineBody{ReadCloser: r.Body, rc: rc}
			}
		}
		h.ServeHTTP(w, r)
	})
}

// deadlineCtx is a request's context with Deadline's timeout added,
// and no runtime timer behind it until something waits. Err reads the
// clock, which is all a node's journaling route asks of it between its
// steps; the first Done — a backoff wait, a context derived from this
// one, a coordinator's upstream call — or the first Err to find the
// request over builds the real context.WithDeadline, which answers
// everything from then on (so Err stays what it first was).
type deadlineCtx struct {
	context.Context // the request's own
	at              time.Time
	once            sync.Once
	built           atomic.Bool // real and cancel are set
	real            context.Context
	cancel          context.CancelFunc
}

// ended is what a deadlineCtx released with its request defers to.
var ended = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

func (c *deadlineCtx) build() context.Context {
	c.once.Do(func() {
		c.real, c.cancel = context.WithDeadline(c.Context, c.at)
		c.built.Store(true)
	})
	return c.real
}

func (c *deadlineCtx) Deadline() (time.Time, bool) {
	if d, ok := c.Context.Deadline(); ok && d.Before(c.at) {
		return d, true
	}
	return c.at, true
}

func (c *deadlineCtx) Done() <-chan struct{} { return c.build().Done() }

func (c *deadlineCtx) Err() error {
	if c.built.Load() {
		return c.real.Err()
	}
	if c.Context.Err() == nil && time.Now().Before(c.at) {
		return nil
	}
	return c.build().Err()
}

func (c *deadlineCtx) Value(key any) any {
	if c.built.Load() {
		// The real context answers for itself, so contexts derived from
		// this one register with it instead of starting a goroutine.
		return c.real.Value(key)
	}
	return c.Context.Value(key)
}

// release ends the context with its request: it stops the timer if one
// was built, and a late caller finds the context canceled.
func (c *deadlineCtx) release() {
	c.once.Do(func() {
		c.real, c.cancel = ended, func() {}
		c.built.Store(true)
	})
	c.cancel()
}

// deadlineBody lifts the connection's read deadline once the request
// body has been read to its end.
type deadlineBody struct {
	io.ReadCloser
	rc *http.ResponseController
}

func (b *deadlineBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF && b.rc != nil {
		b.rc.SetReadDeadline(time.Time{})
		b.rc = nil
	}
	return n, err
}

var errDeadline = errors.New("server: request deadline exceeded")

// writeDeadline answers a journaling request whose context ended before
// anything was reserved or committed, and closes the connection after
// it: the read deadline may have ended the connection's context along
// with the request's. A client that hung up reads nothing.
func writeDeadline(w http.ResponseWriter) {
	w.Header().Set("Connection", "close")
	writeErr(w, http.StatusServiceUnavailable, errDeadline)
}

// requestEnded reports whether err is r's own context ending, not a
// verdict on the request.
func requestEnded(r *http.Request, err error) bool {
	return err != nil && err == r.Context().Err()
}

// isTimeout reports a body read cut off by the read deadline.
func isTimeout(err error) bool { return errors.Is(err, os.ErrDeadlineExceeded) }
