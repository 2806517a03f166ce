package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// jobView is what the harness reads of a job, from the 202 ack, a
// status poll or the job table.
type jobView struct {
	ID           string  `json:"id"`
	Program      string  `json:"program"`
	Scale        float64 `json:"scale"`
	State        string  `json:"state"`
	Epoch        int     `json:"epoch"`
	StartedSimS  float64 `json:"started_sim_s"`
	FinishedSimS float64 `json:"finished_sim_s"`
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: tripDeadlineS * time.Second,
		// One keep-alive connection.
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}
}

// loopStats is what one client goroutine saw; merge folds several.
type loopStats struct {
	attempted, failed int
	firstErr          error
	ackMs             []float64
	tripMs            []float64
	statusUs          []float64
	polls             int
	acked             []string  // job IDs in ack order
	kernelMs          []float64 // the kernel, timed between windows
	spans             []span
}

func (st *loopStats) fail(err error) {
	st.failed++
	if st.firstErr == nil {
		st.firstErr = err
	}
}

func (st *loopStats) merge(o *loopStats) {
	st.attempted += o.attempted
	st.failed += o.failed
	if st.firstErr == nil {
		st.firstErr = o.firstErr
	}
	st.ackMs = append(st.ackMs, o.ackMs...)
	st.tripMs = append(st.tripMs, o.tripMs...)
	st.statusUs = append(st.statusUs, o.statusUs...)
	st.polls += o.polls
	st.acked = append(st.acked, o.acked...)
	st.kernelMs = append(st.kernelMs, o.kernelMs...)
	st.spans = append(st.spans, o.spans...)
}

// client is the closed-loop submitter, on one connection.
type client struct {
	hc     *http.Client
	base   string
	buf    bytes.Buffer
	kernel *kernel // nil = the loop times no kernel
}

// do sends one request and decodes the job in the reply.
func (c *client) do(method, url string, body []byte, want int) (jobView, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return jobView{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return jobView{}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return jobView{}, err
	}
	if resp.StatusCode != want {
		return jobView{}, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(c.buf.Bytes()))
	}
	var j jobView
	if err := json.Unmarshal(c.buf.Bytes(), &j); err != nil {
		return jobView{}, fmt.Errorf("%s %s: %w", method, url, err)
	}
	return j, nil
}

func (c *client) post(body []byte) (string, error) {
	j, err := c.do(http.MethodPost, c.base+"/v1/jobs", body, http.StatusAccepted)
	if err == nil && j.ID == "" {
		err = fmt.Errorf("POST %s/v1/jobs: ack without a job ID", c.base)
	}
	return j.ID, err
}

func (c *client) status(id string) (string, error) {
	j, err := c.do(http.MethodGet, c.base+"/v1/jobs/"+id, nil, http.StatusOK)
	return j.State, err
}

type openJob struct {
	id        string
	sent      time.Time // POST sent
	acked     time.Time
	trip, tid int64 // trace IDs: the trip, and its wait span
}

// submit POSTs reqs back-to-back, the next only after the previous
// 202, and returns the acked jobs still to be seen terminal.
func (c *client) submit(reqs []jobReq, st *loopStats, tr *tracer) []openJob {
	open := make([]openJob, 0, len(reqs))
	for _, r := range reqs {
		st.attempted++
		t0 := time.Now()
		id, err := c.post(r.body)
		t1 := time.Now()
		if err != nil {
			st.fail(err)
			continue
		}
		st.ackMs = append(st.ackMs, ms(t1.Sub(t0)))
		st.acked = append(st.acked, id)
		j := openJob{id: id, sent: t0, acked: t1}
		if tr != nil {
			j.trip = tr.trips.Add(1)
			st.spans = append(st.spans, tr.span("client.post", t0, t1, 0, j.trip))
			j.tid = tr.nextID.Add(1)
		}
		open = append(open, j)
	}
	return open
}

// await polls every open job once per pass, sleeping 1 ms between
// passes, until each is terminal. A trip ends at the first poll that
// sees done; failed, an error or the deadline is a failure.
func (c *client) await(open []openJob, st *loopStats, tr *tracer) {
	for len(open) > 0 {
		keep := open[:0]
		for _, j := range open {
			p0 := time.Now()
			state, err := c.status(j.id)
			p1 := time.Now()
			st.polls++
			st.statusUs = append(st.statusUs, float64(p1.Sub(p0))/1e3)
			if tr != nil {
				st.spans = append(st.spans, tr.span("client.poll", p0, p1, j.tid, j.trip))
			}
			switch {
			case err != nil:
				st.fail(err)
			case state == "failed":
				st.fail(fmt.Errorf("job %s failed", j.id))
			case state == "done":
				st.tripMs = append(st.tripMs, ms(p1.Sub(j.sent)))
				if tr != nil {
					w := tr.span("client.wait", j.acked, p1, 0, j.trip)
					w.ID = j.tid
					st.spans = append(st.spans, w)
				}
			case p1.Sub(j.sent) > tripDeadlineS*time.Second:
				st.fail(fmt.Errorf("job %s still %s after %ds", j.id, state, tripDeadlineS))
			default:
				keep = append(keep, j)
			}
		}
		open = keep
		if len(open) > 0 {
			time.Sleep(time.Millisecond)
		}
	}
}

// closedLoop runs reqs as windows of w jobs: submit a window, wait
// for all of it, start the next. Between windows, with no job of its
// own open, it times the kernel: once per sixteen jobs, about a
// hundredth of the loop's time.
func (c *client) closedLoop(reqs []jobReq, w int, st *loopStats, tr *tracer) {
	for len(reqs) > 0 {
		n := min(w, len(reqs))
		c.await(c.submit(reqs[:n], st, tr), st, tr)
		reqs = reqs[n:]
		if c.kernel != nil {
			for i := max(1, n/16); i > 0; i-- {
				st.kernelMs = append(st.kernelMs, c.kernel.ms())
			}
		}
	}
}

// run takes reqs through the closed loop and returns what the client
// saw and the wall time from the first POST sent to the last job seen
// terminal.
func (c *client) run(reqs []jobReq, w int, tr *tracer) (*loopStats, time.Duration) {
	st := &loopStats{}
	start := time.Now()
	c.closedLoop(reqs, w, st, tr)
	return st, time.Since(start)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
