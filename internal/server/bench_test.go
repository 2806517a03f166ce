package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corun/internal/journal"
	"corun/internal/workload"
)

// benchServer builds an in-memory server (no scheduler loop, no
// journal) with `queued` jobs already admitted, so the benchmarks
// isolate the HTTP serving path itself. timeout is its RequestTimeout.
func benchServer(tb testing.TB, queued int, timeout time.Duration) http.Handler {
	s := newTestServer(tb, func(c *Config) {
		c.MaxQueue = 1 << 20
		c.RequestTimeout = timeout
	})
	tb.Cleanup(func() { s.Close() })
	h := s.Handler()
	for i := 0; i < queued; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs",
			strings.NewReader(`{"program": "cfd", "scale": 1.1}`)))
		if w.Code != http.StatusAccepted {
			tb.Fatalf("prefill submit -> %d: %s", w.Code, w.Body)
		}
	}
	return h
}

// requestTimeouts are the handler benchmarks' two settings: none, and
// corund's default -request-timeout, which is what the daemon serves.
var requestTimeouts = []time.Duration{0, 10 * time.Second}

// BenchmarkSubmitHandler measures the admission hot path: decode,
// validate, admit, encode the ack.
func BenchmarkSubmitHandler(b *testing.B) {
	for _, timeout := range requestTimeouts {
		b.Run("timeout="+timeout.String(), func(b *testing.B) {
			h := benchServer(b, 0, timeout)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submitVia(b, h)
			}
		})
	}
}

// submitVia is one POST /v1/jobs through h, as a client sends it.
func submitVia(tb testing.TB, h http.Handler) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"program": "cfd", "scale": 1.1, "label": "bench"}`)))
	if w.Code != http.StatusAccepted {
		tb.Fatalf("submit -> %d: %s", w.Code, w.Body)
	}
}

// submitAllocs is the allocation count of one POST /v1/jobs through
// Handler() under corund's default -request-timeout, the recorder and
// request included — BenchmarkSubmitHandler/timeout=10s's figure. It
// is a ceiling: a change that raises it says why in the same diff; one
// that lowers it lowers it here.
const submitAllocs = 45

func TestSubmitHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	h := benchServer(t, 0, requestTimeouts[1])
	if a := testing.AllocsPerRun(200, func() { submitVia(t, h) }); a > submitAllocs {
		t.Errorf("a submit allocates %v times, ceiling %d", a, submitAllocs)
	}
}

// BenchmarkJobsHandler measures GET /v1/jobs with a 256-job table —
// the endpoint a dashboard polls — where response encoding dominates.
func BenchmarkJobsHandler(b *testing.B) {
	h := benchServer(b, 256, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
		if w.Code != http.StatusOK {
			b.Fatalf("jobs -> %d", w.Code)
		}
	}
}

// BenchmarkJobHandler measures a single job status read.
func BenchmarkJobHandler(b *testing.B) {
	for _, timeout := range requestTimeouts {
		b.Run("timeout="+timeout.String(), func(b *testing.B) {
			h := benchServer(b, 1, timeout)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/job-000000", nil))
				if w.Code != http.StatusOK {
					b.Fatalf("job -> %d: %s", w.Code, w.Body)
				}
			}
		})
	}
}

// BenchmarkSubmitDurable measures the durable submit→ack path at 1, 4
// and 32 concurrent in-process submitters: a real journal under
// FsyncAlways, with the scheduler loop running the random dispatcher
// beside them so its terminal batches commit too. submits/s is the ack
// rate; fsyncs/job (submission and terminal commits together) is how
// much of the fsync cost the journal's group commit shared.
func BenchmarkSubmitDurable(b *testing.B) {
	for _, conc := range []int{1, 4, 32} {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			s := newTestServer(b, func(c *Config) {
				c.Policy = "random"
				c.MaxQueue = 1 << 20
				c.DataDir = b.TempDir()
				c.Fsync = journal.FsyncAlways
			})
			s.Start(context.Background())
			b.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				if err := s.DrainAndWait(ctx); err != nil {
					b.Error(err)
				}
				s.Close()
			})
			spec := workload.JobSpec{Program: "cfd", Scale: 1.1}
			fsyncs0 := s.m.jlFsyncs.Value()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for g := 0; g < conc; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := s.Submit(spec); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "submits/s")
			b.ReportMetric((s.m.jlFsyncs.Value()-fsyncs0)/float64(b.N), "fsyncs/job")
		})
	}
}
