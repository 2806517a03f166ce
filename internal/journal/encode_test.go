package journal

// Tests for the write path (encode.go). The contract under test is
// byte-identical: for every Record, JobRecord and snapshot document the
// hand encoder writes json.Marshal's bytes, and it fails exactly where
// json.Marshal fails.

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// FuzzAppendRecord holds the record encoder to its oracle,
// json.Marshal, on Records and JobRecords built from the fuzz input:
// same bytes, and an error exactly when json.Marshal errs. The seeds
// are the cases a hand-written encoder gets wrong — HTML-significant
// characters, the JavaScript line separators, invalid UTF-8, floats
// at the edges of fixed notation, negative zero, NaN — and times
// MarshalJSON refuses: a year past 9999, a 24-hour zone offset.
func FuzzAppendRecord(f *testing.F) {
	// id, label, text, scale, deadline, arrived, finished, cap, epoch, seq, unix seconds, nanos, zone offset, shape
	f.Add("job-000000", "nightly", "hcs+", 1.25, 90.0, 41.5, 77.25, 15.0, 3, uint64(7), int64(1754481600), int64(123456789), 0, uint8(0))
	f.Add("n1-job-000042", "<a&b>", "team-a", 1.5, 120.0, 3.25, 77.125, 0.0, 0, uint64(0), int64(0), int64(0), 0, uint8(1))
	f.Add("job-000001", "line\xe2\x80\xa8sep\xe2\x80\xa9", "bad\xffutf8", 0.9, 1e-7, 1e21, 2.5e-9, 1e-6, 1, uint64(1), int64(-1), int64(999999999), 3600, uint8(2))
	f.Add("job-000002", "tab\there\bback\fform\x00nul\x7f", `quote" back\`, math.Copysign(0, -1), -1e-7, 123456789.0, 1e300, -0.5, -1, uint64(math.MaxUint64), int64(42), int64(1), -7200, uint8(3))
	f.Add("job-000003", "日本語 ✓", "", math.NaN(), 0.0, 5e-324, 0.1, math.Inf(1), 7, uint64(9), int64(1), int64(0), 0, uint8(4))
	f.Add("job-000004", "", "", 1.0, 0.0, 0.0, 0.0, 12.0, 0, uint64(3), int64(253402300800), int64(0), 0, uint8(5)) // year 10000
	f.Add("job-000005", "", "", 1.0, 0.0, 0.0, 0.0, 12.0, 0, uint64(3), int64(1754481600), int64(0), 24*3600, uint8(6))
	f.Fuzz(func(t *testing.T, id, label, text string, scale, deadline, arrived, finished, capW float64,
		epoch int, seq uint64, sec, nsec int64, zone int, shape uint8) {
		at := time.Unix(sec, nsec).UTC()
		if zone != 0 {
			at = at.In(time.FixedZone("", zone%(100*3600)))
		}
		met := shape&1 == 1
		jr := JobRecord{
			ID: id, Program: text, Scale: scale, Label: label, DeadlineS: deadline,
			Tenant: text, Priority: label, SubmittedAt: at, ArrivedSimS: arrived,
			State: text, Epoch: epoch, StartedSimS: arrived, FinishedSimS: finished,
			PredictedFinishSimS: finished * scale, ResponseS: finished - arrived,
			Device: label, Partner: id, Error: text,
		}
		if shape&2 != 0 {
			jr.DeadlineMet = &met
		}
		r := Record{Seq: seq, Type: Type(label), Policy: text, SimClockS: finished}
		if shape&4 != 0 {
			r.Job = &jr
		}
		if shape&8 != 0 {
			r.CapWatts = &capW
		}
		if shape&16 != 0 {
			r.PP0Watts = &deadline
		}
		if shape&32 != 0 {
			r.PP1Watts = &scale
		}

		var e encoder
		e.job(&jr)
		matchMarshal(t, "JobRecord", &jr, e.b, e.err)
		got, err := appendRecordJSON(nil, &r)
		matchMarshal(t, "Record", &r, got, err)

		// The framed form carries exactly those bytes as its payload.
		if r.Validate() != nil || err != nil {
			return
		}
		frame, err := AppendRecord([]byte("prefix"), r)
		if err != nil {
			if len(got) <= MaxRecordBytes {
				t.Fatalf("AppendRecord: %v", err)
			}
			return
		}
		if !bytes.Equal(frame[len("prefix")+frameHeader:], got) {
			t.Fatalf("frame payload\n got %s\nwant %s", frame[len("prefix")+frameHeader:], got)
		}
	})
}

// matchMarshal fails unless got and err are what json.Marshal(v)
// returns: the same bytes, or an error both ways.
func matchMarshal(t *testing.T, what string, v any, got []byte, err error) {
	t.Helper()
	want, werr := json.Marshal(v)
	switch {
	case (err != nil) != (werr != nil):
		t.Fatalf("%s: encoder error %v, json.Marshal error %v", what, err, werr)
	case err == nil && !bytes.Equal(got, want):
		t.Fatalf("%s\n got %s\nwant %s", what, got, want)
	}
}

// TestSnapshotMatchesMarshal holds the snapshot document to
// json.Marshal of snapshotFile for an empty state, a state with no
// snapshot at all, and a mixed one: every optional field present or
// absent, a nil job, and labels that need escaping.
func TestSnapshotMatchesMarshal(t *testing.T) {
	w, zero := 15.5, 0.0
	met := false
	mixed := NewState()
	mixed.CapWatts, mixed.PP1Watts = &w, &zero
	mixed.Policy, mixed.SimClockS = "hcs+", 1e-7
	mixed.Jobs = []*JobRecord{
		jobRecord("job-000000").Job,
		{ID: "job-000001", Label: "<a&b> ", SubmittedAt: time.Date(2026, 10, 2, 9, 0, 0, 5000, time.FixedZone("", -5*3600)),
			State: "done", Epoch: 2, FinishedSimS: 1e21, DeadlineMet: &met, Error: "bad\xffutf8"},
		nil,
	}
	for name, st := range map[string]*State{
		"none":    nil,
		"empty":   {},
		"new":     NewState(),
		"policy":  {Policy: "random"},
		"jobs":    {Jobs: []*JobRecord{jobRecord("job-000007").Job}},
		"mixed":   mixed,
		"cleared": {Jobs: []*JobRecord{}},
	} {
		sf := &snapshotFile{Version: snapshotVersion, LastSeq: 42, State: st}
		got, err := appendSnapshot(nil, sf)
		matchMarshal(t, name, sf, got, err)
	}
	bad := &snapshotFile{Version: snapshotVersion, State: &State{SimClockS: math.NaN()}}
	if _, err := appendSnapshot(nil, bad); err == nil {
		t.Error("a NaN clock encoded; json.Marshal refuses it")
	}
}

// TestAppendRecordAllocs is a count gate, a ceiling at today's value:
// a record appended into a buffer with room allocates nothing (the
// frame header is filled in place). A change that makes it allocate
// says why in the same diff.
func TestAppendRecordAllocs(t *testing.T) {
	met := true
	rec := jobRecord("job-000000")
	rec.Seq, rec.SimClockS = 42, 77.25
	rec.Job.Tenant, rec.Job.Priority, rec.Job.DeadlineMet = "team-a", "high", &met
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = AppendRecord(buf[:0], rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendRecord allocated %v times per record, ceiling 0", allocs)
	}
}
