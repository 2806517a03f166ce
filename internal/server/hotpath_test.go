package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"corun/internal/workload"
)

// TestJobBodiesAgree pins the three HTTP bodies a job has — the submit
// ack, GET /v1/jobs/{id} and its element of GET /v1/jobs — to each
// other and to json.Marshal of the job's record, queued and again once
// done, and the list as a whole to the indented encoding of the
// records. The
// labels need escaping, the deadlines leave deadline_met true, false
// and absent, and one job is submitted through the Go API because JSON
// cannot carry invalid UTF-8 into a label.
func TestJobBodiesAgree(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Policy = "random" })
	h := s.Handler()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	list := func() []byte {
		t.Helper()
		rec := serve(http.MethodGet, "/v1/jobs", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/jobs -> %d", rec.Code)
		}
		return rec.Body.Bytes()
	}

	var empty map[string]json.RawMessage
	if err := json.Unmarshal(list(), &empty); err != nil || string(empty["jobs"]) != "[]" {
		t.Fatalf("empty table lists as %s (%v), want {\"jobs\": []}", empty["jobs"], err)
	}

	acks := map[string][]byte{}
	for _, body := range []string{
		`{"program":"cfd","label":"<a&b>\u2028\u2029","deadline_s":1e-7}`,
		`{"program":"lud","label":"tab\t\"quote\" back\\","deadline_s":1e9,"tenant":"team-a","priority":"high"}`,
		`{"program":"dwt2d","scale":1.5}`,
		"{\"program\":\"srad\",\"label\":\"raw \xff byte\"}",
	} {
		rec := serve(http.MethodPost, "/v1/jobs", body)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %s -> %d: %s", body, rec.Code, rec.Body)
		}
		var j Job
		if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
			t.Fatal(err)
		}
		acks[j.ID] = rec.Body.Bytes()
	}
	invalid, err := s.Submit(workload.JobSpec{Program: "hotspot", Label: "bad\xffutf8 <\xe2\x80\xa8>", DeadlineS: 1e-7})
	if err != nil {
		t.Fatal(err)
	}

	check := func(when string, acked bool) {
		t.Helper()
		jobs := s.Jobs()
		for i := range jobs {
			want, err := json.Marshal(&jobs[i])
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			rec := serve(http.MethodGet, "/v1/jobs/"+jobs[i].ID, "")
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("%s: GET /v1/jobs/%s\n got %s\nwant %s", when, jobs[i].ID, got, want)
			}
			if ack, ok := acks[jobs[i].ID]; acked && ok && !bytes.Equal(ack, want) {
				t.Errorf("%s: ack of %s\n got %s\nwant %s", when, jobs[i].ID, ack, want)
			}
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"jobs": jobs}); err != nil {
			t.Fatal(err)
		}
		if got := list(); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: GET /v1/jobs\n got %s\nwant %s", when, got, want.Bytes())
		}
	}
	check("queued", true)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	met := map[string]*bool{}
	for _, j := range waitAllTerminal(t, s, len(acks)+1, 60*time.Second) {
		if j.State != JobDone {
			t.Fatalf("job %s %s: %s", j.ID, j.State, j.Error)
		}
		met[j.ID] = j.DeadlineMet
	}
	check("done", false)
	if m := met["job-000000"]; m == nil || *m {
		t.Errorf("1e-7 s deadline: deadline_met %v, want false", m)
	}
	if m := met["job-000001"]; m == nil || !*m {
		t.Errorf("1e9 s deadline: deadline_met %v, want true", m)
	}
	if m := met["job-000002"]; m != nil {
		t.Errorf("no deadline: deadline_met %v, want absent", *m)
	}
	if m := met[invalid.ID]; m == nil || *m {
		t.Errorf("1e-7 s deadline: deadline_met %v, want false", m)
	}
}
