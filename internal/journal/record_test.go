package journal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
	"time"
)

func capRecord(w float64) Record {
	return Record{Type: TypeCapChanged, CapWatts: &w}
}

func jobRecord(id string) Record {
	return Record{Type: TypeJobSubmitted, Job: &JobRecord{
		ID: id, Program: "cfd", Scale: 1.25, Label: "nightly", DeadlineS: 90,
		SubmittedAt: time.Date(2026, 8, 6, 12, 0, 0, 123456789, time.UTC),
		ArrivedSimS: 41.5, State: "queued",
	}}
}

func TestRecordRoundTrip(t *testing.T) {
	met := true
	recs := []Record{
		jobRecord("job-000001"),
		{Type: TypeJobState, SimClockS: 77.25, Job: &JobRecord{
			ID: "job-000001", Program: "cfd", State: "done", Epoch: 3,
			StartedSimS: 50, FinishedSimS: 77.25, ResponseS: 35.75,
			Device: "GPU", Partner: "job-000002", DeadlineMet: &met,
		}},
		capRecord(18),
		capRecord(0), // explicit uncapped must survive encoding
		{Type: TypePolicyChanged, Policy: "hcs+"},
	}
	var buf []byte
	for i := range recs {
		recs[i].Seq = uint64(i + 1)
		var err error
		buf, err = AppendRecord(buf, recs[i])
		if err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
	// Decode the concatenated frames back and compare field for field.
	off := 0
	for i := range recs {
		r, n, err := DecodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !reflect.DeepEqual(r, recs[i]) {
			t.Errorf("record %d round trip:\n got %+v\nwant %+v", i, r, recs[i])
		}
		off += n
	}
	if off != len(buf) {
		t.Errorf("consumed %d of %d bytes", off, len(buf))
	}
}

// TestRecordTenantFields covers the admission fields added for
// multi-tenant scheduling: they round-trip when set and, critically,
// old journals written before the fields existed decode unchanged —
// the fields are omitempty, so a record without tenant/priority
// re-encodes byte-for-byte and replays with both fields empty.
func TestRecordTenantFields(t *testing.T) {
	r := jobRecord("job-000001")
	r.Job.Tenant = "team-a"
	r.Job.Priority = "high"
	buf, err := AppendRecord(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Job.Tenant != "team-a" || got.Job.Priority != "high" {
		t.Fatalf("round trip lost admission fields: %+v", got.Job)
	}

	// A pre-field payload (exactly what an old daemon wrote: no tenant,
	// no priority keys) decodes with empty admission fields, and
	// re-encoding it reproduces the original frame bit-for-bit.
	old := jobRecord("job-000002")
	old.Seq = 7
	oldFrame, err := AppendRecord(nil, old)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(oldFrame), "tenant") || strings.Contains(string(oldFrame), "priority") {
		t.Fatalf("empty admission fields leaked into the payload: %s", oldFrame)
	}
	dec, _, err := DecodeRecord(oldFrame)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Job.Tenant != "" || dec.Job.Priority != "" {
		t.Fatalf("pre-field record decoded with admission fields: %+v", dec.Job)
	}
	again, err := AppendRecord(nil, dec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, oldFrame) {
		t.Fatalf("pre-field record did not re-encode bit-for-bit:\n got %s\nwant %s", again, oldFrame)
	}
}

func TestDecodeTornAndCorrupt(t *testing.T) {
	frame, err := AppendRecord(nil, capRecord(15))
	if err != nil {
		t.Fatal(err)
	}

	// Every strict prefix of a frame is torn, never corrupt and never
	// a success: the missing bytes may still be in flight.
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := DecodeRecord(frame[:cut]); !errors.Is(err, ErrTornRecord) {
			t.Fatalf("prefix len %d: err %v, want ErrTornRecord", cut, err)
		}
	}

	// Flipping any payload byte must fail the CRC; flipping a CRC byte
	// must too.
	for _, i := range []int{4, frameHeader, len(frame) - 1} {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0xff
		if _, _, err := DecodeRecord(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("flipped byte %d: err %v, want ErrCorrupt", i, err)
		}
	}

	// An absurd length field is corruption, not an allocation.
	bad := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(bad[0:4], MaxRecordBytes+1)
	if _, _, err := DecodeRecord(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized length: err %v, want ErrCorrupt", err)
	}

	// A zero length field frames fine (the CRC-32 of no bytes is 0) but
	// is no record: over nothing but zeros it is where a preallocated
	// log ends, over anything else it is corruption.
	zeros := make([]byte, 64)
	for _, n := range []int{frameHeader, frameHeader + 1, len(zeros)} {
		if _, _, err := DecodeRecord(zeros[:n]); !errors.Is(err, ErrEndOfLog) {
			t.Errorf("%d zero bytes: err %v, want ErrEndOfLog", n, err)
		}
	}
	for _, tail := range [][]byte{{1}, {0, 0, 0, 0, 0xde, 0xad}, frame} {
		b := append(zeros[:frameHeader:frameHeader], tail...)
		if _, _, err := DecodeRecord(b); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "empty payload") {
			t.Errorf("zero header then % x: err %v, want ErrCorrupt (empty payload)", tail, err)
		}
	}
	// A zero length over a non-zero CRC field is the same corruption.
	if _, _, err := DecodeRecord([]byte{0, 0, 0, 0, 1, 0, 0, 0}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("zero length, non-zero crc: err %v, want ErrCorrupt", err)
	}

	// A frame holding valid JSON that fails record validation is
	// corrupt too (framing can't vouch for semantics).
	payload := []byte(`{"type":"job_submitted"}`) // no job
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crcOf(payload))
	if _, _, err := DecodeRecord(append(hdr[:], payload...)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("invalid record: err %v, want ErrCorrupt", err)
	}
}

func TestRecordValidate(t *testing.T) {
	w := 15.0
	bad := []Record{
		{},
		{Type: "rollback"},
		{Type: TypeJobSubmitted},
		{Type: TypeJobState, Job: &JobRecord{}},
		{Type: TypeCapChanged},
		{Type: TypePolicyChanged},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("record %d validated", i)
		}
		if _, err := AppendRecord(nil, r); err == nil {
			t.Errorf("record %d encoded", i)
		}
	}
	good := []Record{
		{Type: TypeCapChanged, CapWatts: &w},
		{Type: TypePolicyChanged, Policy: "hcs"},
		{Type: TypeJobState, Job: &JobRecord{ID: "job-000000"}},
	}
	for i, r := range good {
		if err := r.Validate(); err != nil {
			t.Errorf("record %d: %v", i, err)
		}
	}
}

func TestStateApply(t *testing.T) {
	st := NewState()
	if err := st.Apply(jobRecord("job-000000")); err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(jobRecord("job-000001")); err != nil {
		t.Fatal(err)
	}
	// A state transition replaces the job's record and advances the
	// clock monotonically, and the heatsink with it.
	hot := &Heat{TempC: 44.5, CPUCeil: 15, GPUCeil: 8}
	if err := st.Apply(Record{Type: TypeJobState, SimClockS: 99, Heat: hot,
		Job: &JobRecord{ID: "job-000000", Program: "cfd", State: "done"}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(Record{Type: TypeJobState, SimClockS: 40, Heat: &Heat{TempC: 31},
		Job: &JobRecord{ID: "job-000001", Program: "cfd", State: "failed"}}); err != nil {
		t.Fatal(err)
	}
	if st.SimClockS != 99 || st.Heat != hot {
		t.Errorf("clock %v on %+v, want 99 (monotone max) on the heatsink journaled then", st.SimClockS, st.Heat)
	}
	if j, ok := st.Job("job-000000"); !ok || j.State != "done" {
		t.Errorf("job0 %+v", j)
	}
	if len(st.Jobs) != 2 {
		t.Fatalf("jobs %d", len(st.Jobs))
	}
	// A transition for a job whose submission record was truncated
	// away still lands (tolerance, not strictness, during replay).
	if err := st.Apply(Record{Type: TypeJobState,
		Job: &JobRecord{ID: "job-000009", State: "running"}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Job("job-000009"); !ok {
		t.Error("orphan transition dropped")
	}

	st.Apply(capRecord(18))
	st.Apply(Record{Type: TypePolicyChanged, Policy: "hcs"})
	if st.CapWatts == nil || *st.CapWatts != 18 || st.Policy != "hcs" {
		t.Errorf("cap/policy %+v", st)
	}

	// Apply keeps the record's job itself; a shared view keeps the
	// records and has its own slice, index and cap.
	done := &JobRecord{ID: "job-000001", State: "done"}
	st.Apply(Record{Type: TypeJobState, Job: done})
	c := st.share()
	st.Apply(capRecord(25))
	st.Apply(Record{Type: TypeJobState, Job: &JobRecord{ID: "job-000001", State: "failed"}})
	st.Apply(Record{Type: TypeJobSubmitted, Job: &JobRecord{ID: "job-000010"}})
	if *c.CapWatts != 18 || len(c.Jobs) != 3 || c.Jobs[1] != done {
		t.Errorf("the shared view moved with the original: cap %v, jobs %d", *c.CapWatts, len(c.Jobs))
	}
	if j, ok := c.Job("job-000009"); !ok || j.State != "running" {
		t.Error("shared view's index broken")
	}
	if _, ok := c.Job("job-000010"); ok {
		t.Error("shared view's index moved with the original")
	}
}

func TestApplyRejectsUnknownType(t *testing.T) {
	st := NewState()
	if err := st.Apply(Record{Type: "merge"}); err == nil || !strings.Contains(err.Error(), "unknown record type") {
		t.Errorf("err %v", err)
	}
}

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
