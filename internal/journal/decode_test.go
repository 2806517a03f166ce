package journal

// Tests for the read path (decode.go). The contract under test is
// accept => identical: whatever the schema decoder accepts,
// encoding/json decodes to the same value; everything else goes
// through encoding/json as it always did. Four angles: a fuzz target
// on raw payload bytes with encoding/json as the oracle
// (FuzzDecodePayload), a reflection-driven guard that every journaled
// field stays on the fast path and survives (TestSchemaGuard), the
// parent's json.Unmarshal replay loop kept as a reference Open
// (TestOpenMatchesReferenceReplay), and a directory written by the
// commit before the schema decoder existed (TestGoldenPR16).

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// acceptedSeeds are payloads the schema decoder must keep on the fast
// path: what the encoder emits, plus the corners of JSON's grammar it
// shares with encoding/json.
var acceptedSeeds = []string{
	`{"seq":7,"type":"cap_changed","cap_watts":15.5,"pp0_watts":9,"pp1_watts":0}`,
	`{"seq":8,"type":"policy_changed","policy":"hcs+"}`,
	`{"seq":9,"type":"job_state","job":{"id":"job-000001","program":"cfd","scale":1.25,"label":"nightly","deadline_s":90,"tenant":"team-a","priority":"high","submitted_at":"2026-08-06T12:00:00.123456789Z","arrived_sim_s":41.5,"state":"done","epoch":3,"started_sim_s":50,"finished_sim_s":77.25,"predicted_finish_sim_s":77.5,"response_s":35.75,"device":"GPU","partner":"job-000002","deadline_met":true,"error":"x"},"sim_clock_s":77.25}`,
	`{"type":"job_submitted","job":{"id":"a","submitted_at":"2026-08-06T14:00:00+02:00","deadline_met":false}}`,
	`{"version":1,"last_seq":19,"state":{"cap_watts":16,"pp0_watts":9.5,"pp1_watts":7.25,"policy":"hcs+","sim_clock_s":41.5,"jobs":[{"id":"job-000000","submitted_at":"2026-09-30T08:15:00Z","state":"done"},{"id":"job-000001","submitted_at":"0001-01-01T00:00:00Z"}]}}`,
	`{"version":1,"last_seq":0,"state":{}}`,
	`{}`,
	`{"type":"cap_changed","cap_watts":-0}`,
	`{"type":"cap_changed","cap_watts":1E+2}`,
	`{"type":"job_state","job":{"id":"a","epoch":-0,"submitted_at":"2026-08-06T12:00:00Z"}}`,
}

// declinedSeeds are the classes where a hand-rolled decoder and
// encoding/json part ways unless the former declines.
var declinedSeeds = []string{
	// Keys: repeated (last wins; a repeated "job" merges), other case
	// (encoding/json matches case-insensitively), unknown.
	`{"seq":1,"seq":2,"type":"policy_changed","policy":"hcs"}`,
	`{"type":"job_state","job":{"id":"a","state":"done","submitted_at":"2026-08-06T12:00:00Z"},"job":{"id":"b","submitted_at":"2026-08-06T12:00:00Z"}}`,
	`{"type":"job_state","job":{"ID":"a","submitted_at":"2026-08-06T12:00:00Z"}}`,
	`{"type":"job_state","job":{"id":"a","id":"b","submitted_at":"2026-08-06T12:00:00Z"}}`,
	`{"type":"policy_changed","policy":"hcs","extra":1}`,
	`{"version":1,"last_seq":3,"state":{"jobs":[],"jobs":[{"id":"a","submitted_at":"2026-08-06T12:00:00Z"}]}}`,
	// null: a no-op for values, nil for pointers.
	`{"type":"cap_changed","cap_watts":null}`,
	`{"type":"job_state","job":null}`,
	`{"type":"job_state","job":{"id":null,"submitted_at":null,"deadline_met":null}}`,
	`{"version":1,"last_seq":3,"state":null}`,
	`{"version":1,"last_seq":3,"state":{"jobs":[null]}}`,
	// Numbers strconv takes and JSON does not, and the reverse.
	`{"type":"cap_changed","cap_watts":+1}`,
	`{"type":"cap_changed","cap_watts":01}`,
	`{"type":"cap_changed","cap_watts":1.}`,
	`{"type":"cap_changed","cap_watts":.5}`,
	`{"type":"cap_changed","cap_watts":1e999}`,
	`{"type":"cap_changed","cap_watts":0x10}`,
	`{"type":"cap_changed","cap_watts":1_0}`,
	`{"type":"cap_changed","cap_watts":Inf}`,
	`{"type":"cap_changed","cap_watts":-}`,
	`{"type":"job_state","job":{"id":"a","epoch":1.0,"submitted_at":"2026-08-06T12:00:00Z"}}`,
	`{"type":"job_state","job":{"id":"a","epoch":1e2,"submitted_at":"2026-08-06T12:00:00Z"}}`,
	`{"type":"job_state","job":{"id":"a","epoch":9223372036854775808,"submitted_at":"2026-08-06T12:00:00Z"}}`,
	`{"seq":-1,"type":"policy_changed","policy":"hcs"}`,
	`{"seq":18446744073709551616,"type":"policy_changed","policy":"hcs"}`,
	`{"version":1.0,"last_seq":3}`,
	// Strings: escapes, non-ASCII, control bytes, invalid UTF-8.
	`{"type":"job_state","job":{"id":"a","label":"\u003ca\u0026b\u003e","submitted_at":"2026-08-06T12:00:00Z"}}`,
	`{"type":"job_state","job":{"id":"a","label":"say \"hi\"","submitted_at":"2026-08-06T12:00:00Z"}}`,
	`{"type":"job_state","job":{"id":"a","label":"größe","submitted_at":"2026-08-06T12:00:00Z"}}`,
	"{\"type\":\"policy_changed\",\"policy\":\"h\xffcs\"}",
	"{\"type\":\"policy_changed\",\"policy\":\"h\tcs\"}",
	"{\"type\":\"policy_changed\",\"policy\":\"h\x7fcs\"}",
	`{"type":"policy_changed","policy":"unterminated`,
	`{"type":"policy_changed","pol\u0069cy":"hcs"}`,
	// Times encoding/json leaves to time.Time.UnmarshalJSON.
	`{"type":"job_state","job":{"id":"a","submitted_at":"2026-08-06 12:00:00"}}`,
	`{"type":"job_state","job":{"id":"a","submitted_at":"2026-08-06T12:00:00.Z"}}`,
	`{"type":"job_state","job":{"id":"a","submitted_at":"2026-08-06T24:00:00Z"}}`,
	`{"type":"job_state","job":{"id":"a","submitted_at":1754481600}}`,
	// Whitespace, trailing bytes, wrong shapes.
	`{"type": "policy_changed","policy":"hcs"}`,
	` {"type":"policy_changed","policy":"hcs"}`,
	`{"type":"policy_changed","policy":"hcs"} `,
	`{"type":"policy_changed","policy":"hcs"}{}`,
	`{"type":"policy_changed","policy":"hcs",}`,
	`{"type":"policy_changed","policy":"hcs"`,
	`{"type":"job_state","job":{"id":"a","deadline_met":truex,"submitted_at":"2026-08-06T12:00:00Z"}}`,
	`{"type":"job_state","job":{"id":"a","deadline_met":"true","submitted_at":"2026-08-06T12:00:00Z"}}`,
	`{"type":"job_state","job":[]}`,
	`{"type":7}`,
	`[]`,
	``,
}

// FuzzDecodePayload checks accept => identical on raw payload bytes,
// past the CRC that FuzzDecodeRecord almost never gets through. The
// same bytes are tried as a record payload and as a snapshot
// document.
func FuzzDecodePayload(f *testing.F) {
	for _, s := range append(acceptedSeeds, declinedSeeds...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkRecordPayload(t, b)
		checkSnapshotDoc(t, b)
	})
}

func checkRecordPayload(t *testing.T, b []byte) {
	t.Helper()
	w := 1.0
	untouched := Record{Seq: 99, Type: "untouched", Job: &JobRecord{ID: "untouched"}, CapWatts: &w}
	for _, intern := range []map[string]string{nil, {}} {
		got := untouched
		if !fastRecord(b, intern, &got) {
			if !reflect.DeepEqual(got, untouched) {
				t.Fatalf("declined %q but wrote %+v", b, got)
			}
			continue
		}
		var want Record
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("accepted %q, encoding/json rejects it: %v", b, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("payload %q:\nfast %s\njson %s", b, dump(got), dump(want))
		}
	}
}

func checkSnapshotDoc(t *testing.T, b []byte) {
	t.Helper()
	untouched := snapshotFile{Version: 99, LastSeq: 99, State: &State{Policy: "untouched"}}
	got := untouched
	if !fastSnapshot(b, map[string]string{}, nil, &got) {
		if !reflect.DeepEqual(got, untouched) {
			t.Fatalf("declined %q but wrote %+v", b, got)
		}
		return
	}
	var want snapshotFile
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("accepted snapshot %q, encoding/json rejects it: %v", b, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot %q:\nfast %s\njson %s", b, dump(got), dump(want))
	}
}

// dump renders a decoded value with its pointers followed.
func dump(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%+v (%v)", v, err)
	}
	return string(b)
}

// TestFastPathAccepts pins which seeds stay on the fast path, so the
// decoder cannot quietly turn into "decline everything" (which
// FuzzDecodePayload would pass).
func TestFastPathAccepts(t *testing.T) {
	accepts := func(s string) bool {
		var r Record
		var sf snapshotFile
		return fastRecord([]byte(s), nil, &r) || fastSnapshot([]byte(s), nil, nil, &sf)
	}
	for _, s := range acceptedSeeds {
		if !accepts(s) {
			t.Errorf("declined %q", s)
		}
	}
	for _, s := range declinedSeeds {
		if accepts(s) {
			t.Errorf("accepted %q", s)
		}
	}
}

// fillNonZero sets every exported field reachable from v to a
// distinct non-zero value: strings get their field name (plain ASCII,
// as the fast path wants), pointers and slices one filled element.
func fillNonZero(t *testing.T, v reflect.Value, name string, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("%s-%d", strings.ToLower(name), *n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.1)
	case reflect.Int:
		v.SetInt(int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem(), name, n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(t, v.Index(0), name, n)
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			v.Set(reflect.ValueOf(time.Date(2026, 10, 2, 9, 0, *n, 5000, time.UTC)))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				fillNonZero(t, v.Field(i), f.Name, n)
			}
		}
	default:
		// A field of a new kind (a map of factors, a nested table, ...)
		// needs a case here and a reader in decode.go.
		t.Fatalf("field %s has kind %s, which neither this guard nor the schema decoder knows", name, v.Kind())
	}
}

// TestSchemaGuard journals a record and a snapshot with every field
// of Record, JobRecord and State set, through the real encoders, and
// requires that recovery decoded all of it on the fast path and lost
// nothing. A field added to the schema without a case in decode.go
// fails here (slow-path count), as does one the decoder reads into
// the wrong place (round trip).
func TestSchemaGuard(t *testing.T) {
	var n int
	var rec Record
	fillNonZero(t, reflect.ValueOf(&rec).Elem(), "record", &n)
	rec.Type = TypeJobState
	var inSnap State
	fillNonZero(t, reflect.ValueOf(&inSnap).Elem(), "state", &n)
	inSnap.reindex()

	dir := t.TempDir()
	j, _, _ := openT(t, Options{Dir: dir, SnapshotBytes: -1})
	// The mirror is what Compact snapshots; plant the all-fields state
	// there instead of deriving it through Apply, which (by design)
	// does not carry every Record field into State. The Append then
	// applies rec to it, so inSnap ends up as what recovery must find.
	j.state = &inSnap
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec.Seq = 1

	_, st, stats := openT(t, Options{Dir: dir})
	if !stats.SnapshotLoaded || stats.RecordsReplayed != 1 || stats.SlowPathRecords != 0 {
		t.Fatalf("stats %+v: want the snapshot and one record, all on the fast path", stats)
	}
	if len(inSnap.Jobs) != 2 || !reflect.DeepEqual(st, &inSnap) {
		t.Fatalf("recovered state\n got %s\nwant %s", dump(st), dump(&inSnap))
	}

	frame, err := AppendRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	got, _, slow, err := decodeFrame(frame, map[string]string{})
	if err != nil || slow {
		t.Fatalf("all-fields record: slow = %v, err = %v", slow, err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("record round trip\n got %s\nwant %s", dump(got), dump(rec))
	}
}

// referenceOpen is recovery as the commit before the schema decoder
// did it — json.Unmarshal for the snapshot and for every payload —
// kept as the oracle for Open. It reads dir without repairing it.
func referenceOpen(t *testing.T, dir string) (*State, RecoverStats) {
	t.Helper()
	var stats RecoverStats
	st := NewState()
	var lastSeq uint64
	if b, err := os.ReadFile(filepath.Join(dir, snapName)); err == nil {
		var sf snapshotFile
		if err := json.Unmarshal(b, &sf); err != nil {
			t.Fatal(err)
		}
		if sf.State != nil {
			st = sf.State
			st.reindex()
		}
		lastSeq = sf.LastSeq
		stats.SnapshotLoaded = true
	} else if !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); {
		var r Record
		payload, ok := referenceFrame(data[off:])
		if !ok || json.Unmarshal(payload, &r) != nil || r.Validate() != nil {
			// The rule for what a bad tail counts as, stated on its own:
			// zeros at the end of the file are preallocation, and so are
			// zeros under a zero length field; the rest is torn. (A zero
			// header passes referenceFrame — the CRC of nothing is 0 —
			// and fails here as an empty JSON document.)
			tail := data[off:]
			lo, hi := 0, len(tail)
			for hi > 0 && tail[hi-1] == 0 {
				hi--
			}
			if len(tail) >= 4 && tail[0]|tail[1]|tail[2]|tail[3] == 0 {
				for lo < hi && tail[lo] == 0 {
					lo++
				}
			}
			stats.TruncatedTailBytes = int64(hi - lo)
			stats.PreallocatedTailBytes = int64(len(tail) - (hi - lo))
			break
		}
		if r.Seq > lastSeq {
			if err := st.Apply(r); err != nil {
				t.Fatal(err)
			}
			lastSeq = r.Seq
			stats.RecordsReplayed++
		}
		off += frameHeader + len(payload)
	}
	stats.Jobs = len(st.Jobs)
	return st, stats
}

func referenceFrame(b []byte) (payload []byte, ok bool) {
	if len(b) < frameHeader {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n > MaxRecordBytes || uint32(len(b)-frameHeader) < n {
		return nil, false
	}
	payload = b[frameHeader : frameHeader+int(n)]
	return payload, crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(b[4:8])
}

func copyDir(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	for _, name := range []string{snapName, logName} {
		b, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// TestOpenMatchesReferenceReplay runs Open and the reference replay
// over one directory with everything recovery has to cope with — a
// snapshot from a compaction forced mid-stream, leftover records the
// snapshot already covers, a tail — ending in each thing a log can end
// in: a torn final frame, the zeros of a preallocation nobody trimmed,
// both, zeros with garbage past them, and (the log alone) only zeros.
// It runs on one, two and seven decoding goroutines.
func TestOpenMatchesReferenceReplay(t *testing.T) {
	for _, procs := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			openMatchesReferenceReplay(t)
		})
	}
}

func openMatchesReferenceReplay(t *testing.T) {
	dir := t.TempDir()
	writeServeShaped(t, dir, 600, 128<<10)
	log, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	stale, err := AppendRecord(nil, Record{Seq: 1, Type: TypePolicyChanged, Policy: "stale"})
	if err != nil {
		t.Fatal(err)
	}
	torn, err := AppendRecord(nil, jobRecord("job-torn"))
	if err != nil {
		t.Fatal(err)
	}
	torn = torn[:len(torn)-5]
	log = append(stale, log...)
	zeros := make([]byte, 4096)
	garbage := []byte{0x2a, 0, 0, 0, 0xde, 0xad}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	for _, tc := range []struct {
		name             string
		log              []byte
		jobs             int
		torn, prealloced int
	}{
		{"torn frame", cat(log, torn), 600, len(torn), 0},
		{"valid frames then zeros", cat(log, zeros), 600, 0, len(zeros)},
		{"torn frame then zeros", cat(log, torn, zeros), 600, len(torn), len(zeros)},
		{"zero header then garbage", cat(log, zeros, garbage), 600, len(garbage), len(zeros)},
		{"all zero", zeros, 0, 0, len(zeros)},
	} {
		if err := os.WriteFile(filepath.Join(dir, logName), tc.log, 0o644); err != nil {
			t.Fatal(err)
		}
		want, wantStats := referenceOpen(t, dir)
		if tc.jobs == 0 {
			tc.jobs = wantStats.Jobs // whatever the snapshot alone holds
		} else if wantStats.RecordsReplayed == 0 {
			t.Fatalf("%s: no tail replayed: %+v", tc.name, wantStats)
		}
		if !wantStats.SnapshotLoaded || wantStats.Jobs != tc.jobs || wantStats.Jobs == 0 ||
			wantStats.TruncatedTailBytes != int64(tc.torn) || wantStats.PreallocatedTailBytes != int64(tc.prealloced) {
			t.Fatalf("%s: the directory is not the shape this test is about: %+v", tc.name, wantStats)
		}
		_, got, gotStats := openT(t, Options{Dir: copyDir(t, dir)})
		if gotStats != wantStats {
			t.Fatalf("%s: stats %+v, reference %+v", tc.name, gotStats, wantStats)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Open and the reference replay disagree:\n got %s\nwant %s", tc.name, dump(got), dump(want))
		}
	}
}

// TestGoldenPR16 recovers testdata/pr16: a snapshot, five leftover
// frames, a 16-record tail and a torn frame, written by the journal
// code of the commit before the schema decoder (PR 16's tree), with
// the state and stats that commit recovered from it. Three tail
// records carry a label with non-ASCII and HTML-escaped characters,
// so both decode paths run.
func TestGoldenPR16(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "pr16", "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Stats RecoverStats `json:"stats"`
		State *State       `json:"state"`
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	want.State.reindex()
	want.Stats.SlowPathRecords = 3

	_, got, gotStats := openT(t, Options{Dir: copyDir(t, filepath.Join("testdata", "pr16"))})
	if gotStats != want.Stats {
		t.Fatalf("stats %+v, want %+v", gotStats, want.Stats)
	}
	if !reflect.DeepEqual(got, want.State) {
		t.Fatalf("recovered state\n got %s\nwant %s", dump(got), dump(want.State))
	}
}

// TestSnapshotVersionRejected: a snapshot in a format this build does
// not know is as unusable as a corrupt one, on either decode path.
func TestSnapshotVersionRejected(t *testing.T) {
	for name, doc := range map[string]string{
		"fast path": `{"version":2,"last_seq":3,"state":{"policy":"hcs"}}`,
		"slow path": `{ "version": 2, "last_seq": 3, "state": {"policy": "hcs"} }`,
		"missing":   `{"last_seq":3,"state":{"policy":"hcs"}}`,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapName), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		j, _, _, err := Open(Options{Dir: dir})
		if err == nil {
			j.Close()
			t.Errorf("%s: snapshot %s accepted", name, doc)
		} else if !strings.Contains(err.Error(), "corrupt snapshot") {
			t.Errorf("%s: error %q is not the corrupt-snapshot class", name, err)
		}
	}
}

// splitSnapshot decodes doc with the jobs array cut at cuts, each
// piece on a goroutine of its own, as Open's reader does.
func splitSnapshot(doc []byte, cuts []int, sf *snapshotFile) bool {
	pieces := jobsPieces(cuts)
	for _, p := range pieces {
		go p.decode(doc, map[string]string{})
	}
	return fastSnapshot(doc, map[string]string{}, pieces, sf)
}

// FuzzSnapshotSplit: for any document and any cuts, the split decode
// either declines (and writes nothing) or returns exactly what the
// single pass returns — fastSnapshot, else encoding/json.
func FuzzSnapshotSplit(f *testing.F) {
	var sf snapshotFile
	if err := json.Unmarshal([]byte(acceptedSeeds[4]), &sf); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		jr := *sf.State.Jobs[i%2]
		jr.ID = fmt.Sprintf("job-%06d", i+2)
		sf.State.Jobs = append(sf.State.Jobs, &jr)
	}
	doc, err := appendSnapshot(nil, &sf)
	if err != nil {
		f.Fatal(err)
	}
	for i := bytes.Index(doc, jobsSep); i >= 0; i = bytes.Index(doc[i+1:], jobsSep) + i + 1 {
		f.Add(doc, uint16(i+1), uint16(i+1))
		f.Add(doc, uint16(i+1), uint16(len(doc)-20))
		if bytes.Index(doc[i+1:], jobsSep) < 0 {
			break
		}
	}
	f.Add(doc, uint16(40), uint16(41))
	for _, s := range append(acceptedSeeds, declinedSeeds...) {
		f.Add([]byte(s), uint16(len(s)/3), uint16(len(s)/2))
	}
	f.Fuzz(func(t *testing.T, doc []byte, a, b uint16) {
		var cuts []int
		for _, c := range []int{int(a), int(b)} {
			if c > 0 && c < len(doc) && (len(cuts) == 0 || c > cuts[0]) {
				cuts = append(cuts, c)
			}
		}
		untouched := snapshotFile{Version: 99, LastSeq: 99, State: &State{Policy: "untouched"}}
		got := untouched
		if !splitSnapshot(doc, cuts, &got) {
			if !reflect.DeepEqual(got, untouched) {
				t.Fatalf("declined %q at %v but wrote %+v", doc, cuts, got)
			}
			return
		}
		var want snapshotFile
		if !fastSnapshot(doc, nil, nil, &want) {
			if err := json.Unmarshal(doc, &want); err != nil {
				t.Fatalf("split at %v accepted %q, encoding/json rejects it: %v", cuts, doc, err)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot %q split at %v:\nsplit %s\nwhole %s", doc, cuts, dump(got), dump(want))
		}
	})
}

// TestSnapshotSplitTakesEveryCut pins that the encoder's own snapshot
// splits where snapshotPieces cuts it, so Open's reader does not
// quietly fall back to the single pass (which FuzzSnapshotSplit would
// pass).
func TestSnapshotSplitTakesEveryCut(t *testing.T) {
	dir := t.TempDir()
	writeServeShaped(t, dir, 600, 128<<10)
	doc, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	var want snapshotFile
	if !fastSnapshot(doc, nil, nil, &want) {
		t.Fatal("the single pass declined the encoder's snapshot")
	}
	for _, n := range []int{2, 3, 7, 64} {
		pieces := snapshotPieces(doc, n)
		if len(pieces) != n-1 {
			t.Fatalf("%d pieces: %d cuts, want %d", n, len(pieces), n-1)
		}
		cuts := make([]int, len(pieces))
		for i, p := range pieces {
			cuts[i] = p.from
		}
		var got snapshotFile
		if !splitSnapshot(doc, cuts, &got) {
			t.Fatalf("%d pieces: the split decode declined", n)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d pieces: the split decode differs from the single pass", n)
		}
	}
}

// TestOpenSplitMatchesReferenceReplay moves the damage TestOpenMatches
// ReferenceReplay puts at the end of the log — a torn frame, a frame
// whose CRC fails, a zero header — and a record the snapshot already
// covers to the start, the middle and the end of the log, each
// followed by the rest of it, and recovers on one, two and seven
// decoding goroutines. On seven, the corrupt frame and the stale
// record fall in the first, a middle and the last piece of the log;
// a zero header ends the header walk, and in this log so does the
// misaligned header behind a torn frame, so those fall in the last. One more directory has a snapshot
// whose middle job has a label the encoder escapes, which the schema
// decoder declines: the whole document takes the single pass and
// encoding/json.
func TestOpenSplitMatchesReferenceReplay(t *testing.T) {
	base := t.TempDir()
	writeServeShaped(t, base, 600, 128<<10)
	log, err := os.ReadFile(filepath.Join(base, logName))
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, log)
	frame := func(r Record) []byte {
		b, err := AppendRecord(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	stale := frame(Record{Seq: 1, Type: TypePolicyChanged, Policy: "stale"})
	torn := frame(jobRecord("job-torn"))
	torn = torn[:len(torn)-5]
	corrupt := frame(jobRecord("job-corrupt"))
	corrupt[len(corrupt)-3] ^= 0x01
	zeros := make([]byte, 4096)

	type variant struct {
		name  string
		log   []byte
		at    int // where the inserted bytes start
		piece string
	}
	var variants []variant
	for _, pos := range []struct {
		name string
		frac float64
	}{{"first", 1.0 / 14}, {"middle", 0.5}, {"last", 13.0 / 14}} {
		at := ends[int(pos.frac*float64(len(ends)))]
		for _, ins := range []struct {
			name  string
			b     []byte
			walks bool // the header walk goes on past it
		}{{"stale", stale, true}, {"corrupt", corrupt, true}, {"torn", torn, false}, {"zeros", zeros, false}} {
			piece := pos.name
			if !ins.walks {
				piece = "last"
			}
			variants = append(variants, variant{ins.name + " " + pos.name,
				bytes.Join([][]byte{log[:at], ins.b, log[at:]}, nil), at, piece})
		}
	}

	escaped := copyDir(t, base)
	doc, err := os.ReadFile(filepath.Join(escaped, snapName))
	if err != nil {
		t.Fatal(err)
	}
	var sf snapshotFile
	if err := json.Unmarshal(doc, &sf); err != nil {
		t.Fatal(err)
	}
	mid := *sf.State.Jobs[len(sf.State.Jobs)/2]
	mid.Label = "<a&b>"
	sf.State.Jobs[len(sf.State.Jobs)/2] = &mid
	if doc, err = appendSnapshot(nil, &sf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(escaped, snapName), doc, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, procs := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, v := range variants {
				dir := copyDir(t, base)
				if err := os.WriteFile(filepath.Join(dir, logName), v.log, 0o644); err != nil {
					t.Fatal(err)
				}
				if procs == 7 {
					pieces := logPieces(v.log, procs)
					i := 0
					for i < len(pieces)-1 && pieces[i].to <= v.at {
						i++
					}
					last := len(pieces) - 1
					if ok := map[string]bool{"first": i == 0 && last > 0, "middle": i > 0 && i < last, "last": i == last}[v.piece]; !ok {
						t.Fatalf("%s: offset %d falls in piece %d of %d, want the %s", v.name, v.at, i, len(pieces), v.piece)
					}
				}
				want, wantStats := referenceOpen(t, dir)
				if wantStats.RecordsReplayed == 0 || !wantStats.SnapshotLoaded {
					t.Fatalf("%s: the directory is not the shape this test is about: %+v", v.name, wantStats)
				}
				_, got, gotStats := openT(t, Options{Dir: dir})
				if gotStats != wantStats || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Open and the reference replay disagree: stats %+v, reference %+v", v.name, gotStats, wantStats)
				}
			}

			want, wantStats := referenceOpen(t, escaped)
			_, got, gotStats := openT(t, Options{Dir: copyDir(t, escaped)})
			if wantStats.SlowPathRecords = 1; gotStats != wantStats {
				t.Fatalf("escaped label: stats %+v, want %+v", gotStats, wantStats)
			}
			if j, ok := got.Job(mid.ID); !ok || j.Label != mid.Label || !reflect.DeepEqual(got, want) {
				t.Fatalf("escaped label: Open and the reference replay disagree")
			}
		})
	}
}
