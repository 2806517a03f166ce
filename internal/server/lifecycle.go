package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Start launches the scheduler goroutine. The loop runs until ctx is
// cancelled or Drain is called; either way it finishes the in-flight
// epoch, flushes the remaining queue through one final round, and then
// closes Drained. Start is idempotent — only the first call launches.
func (s *Server) Start(ctx context.Context) {
	s.startOnce.Do(func() { go s.loop(ctx) })
}

// Drain stops admission immediately (new submits get 503) and asks the
// scheduler loop to exit after flushing the queue. It returns without
// waiting; watch Drained for completion.
func (s *Server) Drain() {
	s.markDraining()
	s.stopOnce.Do(func() { close(s.stop) })
}

// markDraining stops admission; idempotent. Taken under admMu so it
// serializes against Submit's post-journal re-check and the loop's
// exit decision.
func (s *Server) markDraining() {
	s.admMu.Lock()
	s.draining.Store(true)
	s.admMu.Unlock()
}

// Drained is closed when the scheduler loop has exited.
func (s *Server) Drained() <-chan struct{} { return s.drained }

// DrainAndWait drains and blocks until the loop exits or ctx expires.
func (s *Server) DrainAndWait(ctx context.Context) error {
	s.Drain()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
}

// Close releases the durable state journal, fsyncing it first; it is a
// no-op for in-memory servers and idempotent. A commit racing Close
// gets journal.ErrClosed (a submit reports it as ErrDraining).
// ListenAndServe closes after its drain; standalone users of
// Start/Drain should Close once Drained has fired.
func (s *Server) Close() error {
	if s.jl == nil {
		return nil
	}
	return s.jl.Close()
}

// ListenAndServe runs the daemon at addr until ctx is cancelled, then
// drains gracefully: admission stops, the scheduler flushes its queue
// (bounded by drainTimeout), and the HTTP listener shuts down.
// It returns nil on a clean drain.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.serve(ctx, ln)
}

func (s *Server) serve(ctx context.Context, ln net.Listener) error {
	// The loop gets its own context: cancellation flows through Drain
	// so admission closes synchronously before the listener does.
	s.Start(context.Background())
	srv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		return fmt.Errorf("server: listener failed: %w", err)
	case <-ctx.Done():
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := s.DrainAndWait(drainCtx)
	if cerr := s.Close(); cerr != nil && drainErr == nil {
		drainErr = cerr
	}

	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("server: http shutdown: %w", err)
	}
	return drainErr
}
