package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"corun/internal/journal"
	"corun/internal/workload"
)

// stateRank orders the job lifecycle for the stress assertions: a
// job's observed state may only ever move forward through this rank
// (queued → planned → running → terminal), and a terminal state never
// changes again.
func stateRank(s string) int {
	switch s {
	case JobQueued:
		return 0
	case JobPlanned:
		return 1
	case JobRunning:
		return 2
	case JobDone, JobFailed:
		return 3
	}
	return -1
}

// TestJobTableStress is the job table's linearizability-style
// stress test: with the scheduler live, concurrent submitters, per-job
// pollers, and list readers hammer the table under the one lock, and
// every observation must be a legal lifecycle successor of the
// previous one for that job — no backwards transitions, no terminal flip
// (done↔failed), no job vanishing after its ack. Meanwhile the list
// endpoint must never serve a body missing an already-acked job. Run
// with -race to make it a memory-model check as well.
func TestJobTableStress(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxQueue = 4096
		c.MaxBatch = 16
		// The cheap policy: the test stresses the table, not the
		// planner, and hcs+ refinement would dominate the runtime.
		c.Policy = "random"
		// The journal encodes the very snapshots the readers below read.
		c.DataDir = t.TempDir()
		c.Fsync = journal.FsyncNever
	})
	defer s.Close()
	s.Start(context.Background())
	defer func() {
		s.Drain()
		select {
		case <-s.Drained():
		case <-time.After(60 * time.Second):
			t.Fatal("drain stuck")
		}
	}()

	const submitters, perSub = 8, 20
	var wg sync.WaitGroup
	stopPoll := make(chan struct{})

	// Submitters: each records its acked IDs; pollers chase them.
	ids := make(chan string, submitters*perSub)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSub; i++ {
				j, err := s.Submit(workload.JobSpec{Program: "lud"})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				// An acked job must be immediately visible by ID and in
				// the next list body (never older than the acked write).
				if got := s.table.get(j.ID); got == nil {
					t.Errorf("acked job %s invisible to Get", j.ID)
					return
				}
				body := listBody(t, s)
				if !strings.Contains(string(body), `"`+j.ID+`"`) {
					t.Errorf("list served after ack of %s does not contain it", j.ID)
					return
				}
				ids <- j.ID
			}
		}()
	}

	// Per-job pollers: watch observed states only ever move forward.
	var pollWG sync.WaitGroup
	for p := 0; p < 4; p++ {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			last := map[string]string{}
			var watch []string
			for {
				select {
				case <-stopPoll:
					return
				case id := <-ids:
					watch = append(watch, id)
				default:
				}
				for _, id := range watch {
					j := s.table.get(id)
					if j == nil {
						t.Errorf("job %s vanished", id)
						return
					}
					if prev, ok := last[id]; ok {
						pr, nr := stateRank(prev), stateRank(j.State)
						if nr < pr {
							t.Errorf("job %s went backwards: %s -> %s", id, prev, j.State)
							return
						}
						if pr == 3 && j.State != prev {
							t.Errorf("job %s changed terminal state: %s -> %s", id, prev, j.State)
							return
						}
					}
					if stateRank(j.State) < 0 {
						t.Errorf("job %s in unknown state %q", id, j.State)
						return
					}
					last[id] = j.State
				}
			}
		}()
	}

	// List readers: every body must parse and every job in it must be
	// in a legal state (the walk may interleave with transitions, but
	// each snapshot it copies is a published one).
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				body := listBody(t, s)
				var out struct {
					Jobs []Job `json:"jobs"`
				}
				if err := json.Unmarshal(body, &out); err != nil {
					t.Errorf("list body unparsable: %v", err)
					return
				}
				for i := range out.Jobs {
					if stateRank(out.Jobs[i].State) < 0 {
						t.Errorf("list shows %s in unknown state %q", out.Jobs[i].ID, out.Jobs[i].State)
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	close(stopPoll)
	pollWG.Wait()

	// Drain flushes the queue; afterwards every submitted job must be
	// terminal, present, and counted exactly once.
	s.Drain()
	select {
	case <-s.Drained():
	case <-time.After(60 * time.Second):
		t.Fatal("drain stuck")
	}
	jobs := s.Jobs()
	if len(jobs) != submitters*perSub {
		t.Fatalf("table holds %d jobs, want %d", len(jobs), submitters*perSub)
	}
	seen := map[string]bool{}
	for i := range jobs {
		j := &jobs[i]
		if seen[j.ID] {
			t.Fatalf("job %s listed twice", j.ID)
		}
		seen[j.ID] = true
		if !terminal(j.State) {
			t.Errorf("job %s not terminal after drain: %s", j.ID, j.State)
		}
	}
}

// listBody is the GET /v1/jobs response body.
func listBody(t *testing.T, s *Server) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.handleJobs(rec, nil)
	if rec.Code != http.StatusOK {
		t.Errorf("GET /v1/jobs: status %d", rec.Code)
	}
	return rec.Body.Bytes()
}
