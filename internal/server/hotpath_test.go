package server

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// FuzzAppendJobJSON holds the hand-written single-job encoder behind
// the submit ack and GET /v1/jobs/{id} to its oracle, json.Marshal —
// the encoder of GET /v1/jobs — byte for byte, so one job renders the
// same on every endpoint. The seeds are the cases the two used to
// disagree on: HTML-significant characters, the JavaScript line
// separators, invalid UTF-8, short control escapes and small floats.
func FuzzAppendJobJSON(f *testing.F) {
	f.Add("job-000000", "nightly", "team-a", "", 1.0, 0.0, 0.0, 0.0, 0, int64(0), uint8(0))
	f.Add("n1-job-000042", "<a&b>", "default", "", 1.5, 120.0, 3.25, 77.125, 3, int64(1760000000123456789), uint8(1))
	f.Add("job-000001", "line\xe2\x80\xa8sep\xe2\x80\xa9", "", "bad\xffutf8", 0.9, 0.0, 1e-7, 2.5e-9, 0, int64(-1), uint8(2))
	f.Add("job-000002", "tab\there\bback\fform\x00nul\x7f", "batch", `quote" back\`, 1e21, 1e-6, 123456789.0, 1e300, 7, int64(42), uint8(1))
	f.Add("job-000003", "日本語 ✓", "", "", -0.0, -1e-7, 5e-324, 0.1, -1, int64(1), uint8(0))
	f.Fuzz(func(t *testing.T, id, label, tenant, errText string, scale, deadline, arrived, finished float64, epoch int, nanos int64, met uint8) {
		j := Job{
			ID: id, Program: tenant + id, Scale: scale, Label: label, DeadlineS: deadline,
			State: JobState(label), SubmittedAt: time.Unix(0, nanos).UTC(),
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
		want, err := json.Marshal(&j)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJobJSON(nil, &j); !bytes.Equal(got, want) {
			t.Fatalf("appendJobJSON\n got %s\nwant %s", got, want)
		}
	})
}
