package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"corun/internal/workload"
)

// httpJob is the HTTP schema of a job spelled as a tagged struct: the
// field order, the always-present fields and the omitempty ones of
// every job body the daemon serves. It is the oracle appendJobJSON is
// held to, and the one place the schema is written as a struct.
type httpJob struct {
	ID                  string    `json:"id"`
	Program             string    `json:"program"`
	Scale               float64   `json:"scale"`
	Label               string    `json:"label"`
	DeadlineS           float64   `json:"deadline_s,omitempty"`
	State               string    `json:"state"`
	SubmittedAt         time.Time `json:"submitted_at"`
	Tenant              string    `json:"tenant,omitempty"`
	Priority            string    `json:"priority,omitempty"`
	Epoch               int       `json:"epoch,omitempty"`
	ArrivedSimS         float64   `json:"arrived_sim_s"`
	StartedSimS         float64   `json:"started_sim_s,omitempty"`
	FinishedSimS        float64   `json:"finished_sim_s,omitempty"`
	PredictedFinishSimS float64   `json:"predicted_finish_sim_s,omitempty"`
	ResponseS           float64   `json:"response_s,omitempty"`
	Device              string    `json:"device,omitempty"`
	Partner             string    `json:"partner,omitempty"`
	DeadlineMet         *bool     `json:"deadline_met,omitempty"`
	Error               string    `json:"error,omitempty"`
}

func httpForm(j *Job) httpJob {
	return httpJob{
		ID: j.ID, Program: j.Program, Scale: j.Scale, Label: j.Label, DeadlineS: j.DeadlineS,
		State: j.State, SubmittedAt: j.SubmittedAt, Tenant: j.Tenant, Priority: j.Priority,
		Epoch: j.Epoch, ArrivedSimS: j.ArrivedSimS, StartedSimS: j.StartedSimS,
		FinishedSimS: j.FinishedSimS, PredictedFinishSimS: j.PredictedFinishSimS,
		ResponseS: j.ResponseS, Device: j.Device, Partner: j.Partner,
		DeadlineMet: j.DeadlineMet, Error: j.Error,
	}
}

// FuzzAppendJobJSON holds the job encoder behind every HTTP job body to
// its oracle, json.Marshal of httpJob, byte for byte. The seeds are
// the cases a hand-written encoder gets wrong: HTML-significant
// characters, the JavaScript line separators, invalid UTF-8, short
// control escapes and small floats.
func FuzzAppendJobJSON(f *testing.F) {
	f.Add("job-000000", "nightly", "team-a", "", 1.0, 0.0, 0.0, 0.0, 0, int64(0), uint8(0))
	f.Add("n1-job-000042", "<a&b>", "default", "", 1.5, 120.0, 3.25, 77.125, 3, int64(1760000000123456789), uint8(1))
	f.Add("job-000001", "line\xe2\x80\xa8sep\xe2\x80\xa9", "", "bad\xffutf8", 0.9, 0.0, 1e-7, 2.5e-9, 0, int64(-1), uint8(2))
	f.Add("job-000002", "tab\there\bback\fform\x00nul\x7f", "batch", `quote" back\`, 1e21, 1e-6, 123456789.0, 1e300, 7, int64(42), uint8(1))
	f.Add("job-000003", "日本語 ✓", "", "", -0.0, -1e-7, 5e-324, 0.1, -1, int64(1), uint8(0))
	f.Fuzz(func(t *testing.T, id, label, tenant, errText string, scale, deadline, arrived, finished float64, epoch int, nanos int64, met uint8) {
		j := Job{
			ID: id, Program: tenant + id, Scale: scale, Label: label, DeadlineS: deadline,
			State: label, SubmittedAt: time.Unix(0, nanos).UTC(),
			Tenant: tenant, Priority: errText, Epoch: epoch,
			ArrivedSimS: arrived, StartedSimS: arrived, FinishedSimS: finished,
			PredictedFinishSimS: finished * scale, ResponseS: finished - arrived,
			Device: label, Partner: id, Error: errText,
		}
		for _, v := range []float64{j.Scale, j.DeadlineS, j.ArrivedSimS, j.FinishedSimS, j.PredictedFinishSimS, j.ResponseS} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return // json.Marshal refuses them; no job carries one
			}
		}
		if met != 0 {
			b := met == 1
			j.DeadlineMet = &b
		}
		want, err := json.Marshal(httpForm(&j))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJobJSON(nil, &j); !bytes.Equal(got, want) {
			t.Fatalf("appendJobJSON\n got %s\nwant %s", got, want)
		}
	})
}

// TestJobBodiesAgree pins the three HTTP bodies a job has — the submit
// ack, GET /v1/jobs/{id} and its element of GET /v1/jobs — to each
// other and to json.Marshal of httpJob, queued and again once done, and
// the list as a whole to the indented encoding of the oracle jobs. The
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
		var j httpJob
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
		oracle := make([]httpJob, len(jobs))
		for i := range jobs {
			oracle[i] = httpForm(&jobs[i])
			want, err := json.Marshal(oracle[i])
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
		if err := enc.Encode(map[string]any{"jobs": oracle}); err != nil {
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
