package journal

// The journal's write path: a hand encoder of the package's own schema
// (Record, JobRecord, State and the snapshot document), the mirror of
// decode.go. Its rule is byte-identical: for every value it writes
// exactly what json.Marshal writes — the tags' field order and
// omitempty, encoding/json's escaping, float and time formats — and
// it fails exactly where json.Marshal fails (NaN, ±Inf, a time
// MarshalJSON refuses). So the log and the snapshot are the bytes the
// reflection encoder wrote, old journals replay, and encoding/json
// stays the oracle (FuzzAppendRecord, TestSnapshotMatchesMarshal). The
// rules for one value are at the end of the file: jsonString, jsonFloat
// and jsonTime append what json.Marshal writes for it, without the
// reflection walk.
//
// A new journaled field needs one line in its struct's function below
// and one case in decode.go; TestSchemaGuard fails until it has both.
// A job's HTTP bodies are this encoding too (AppendJob), so that is
// also all a new job field needs to be served.

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// encoder appends one document; the first value json.Marshal would
// refuse is kept in err and the bytes are then garbage.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) str(key, s string) {
	e.b = append(e.b, key...)
	e.b = jsonString(e.b, s)
}

func (e *encoder) float(key string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("json: unsupported value: %v", v)
		}
		return
	}
	e.b = append(e.b, key...)
	e.b = jsonFloat(e.b, v)
}

func (e *encoder) floatPtr(key string, p *float64) {
	if p != nil {
		e.float(key, *p)
	}
}

func (e *encoder) uint(key string, v uint64) {
	e.b = append(e.b, key...)
	e.b = strconv.AppendUint(e.b, v, 10)
}

// record writes a Record: {"seq"?,"type","job"?,"cap_watts"?,
// "pp0_watts"?,"pp1_watts"?,"policy"?,"sim_clock_s"?,"heat"?}.
func (e *encoder) record(r *Record) {
	e.b = append(e.b, '{')
	if r.Seq != 0 {
		e.uint(`"seq":`, r.Seq)
		e.b = append(e.b, ',')
	}
	e.str(`"type":`, string(r.Type))
	if r.Job != nil {
		e.b = append(e.b, `,"job":`...)
		e.job(r.Job)
	}
	e.floatPtr(`,"cap_watts":`, r.CapWatts)
	e.floatPtr(`,"pp0_watts":`, r.PP0Watts)
	e.floatPtr(`,"pp1_watts":`, r.PP1Watts)
	if r.Policy != "" {
		e.str(`,"policy":`, r.Policy)
	}
	if r.SimClockS != 0 {
		e.float(`,"sim_clock_s":`, r.SimClockS)
	}
	e.heat(r.Heat)
	e.b = append(e.b, '}')
}

// heat writes ,"heat":{"temp_c","cpu_ceil","gpu_ceil"} unless h is nil.
func (e *encoder) heat(h *Heat) {
	if h == nil {
		return
	}
	e.float(`,"heat":{"temp_c":`, h.TempC)
	e.b = strconv.AppendInt(append(e.b, `,"cpu_ceil":`...), int64(h.CPUCeil), 10)
	e.b = strconv.AppendInt(append(e.b, `,"gpu_ceil":`...), int64(h.GPUCeil), 10)
	e.b = append(e.b, '}')
}

// job writes a JobRecord: id and submitted_at always, every other
// field only when set, in the tags' order.
func (e *encoder) job(jr *JobRecord) {
	e.str(`{"id":`, jr.ID)
	if jr.Program != "" {
		e.str(`,"program":`, jr.Program)
	}
	if jr.Scale != 0 {
		e.float(`,"scale":`, jr.Scale)
	}
	if jr.Label != "" {
		e.str(`,"label":`, jr.Label)
	}
	if jr.DeadlineS != 0 {
		e.float(`,"deadline_s":`, jr.DeadlineS)
	}
	if jr.Tenant != "" {
		e.str(`,"tenant":`, jr.Tenant)
	}
	if jr.Priority != "" {
		e.str(`,"priority":`, jr.Priority)
	}
	e.b = append(e.b, `,"submitted_at":`...)
	var err error
	if e.b, err = jsonTime(e.b, jr.SubmittedAt); err != nil && e.err == nil {
		e.err = err
	}
	if jr.ArrivedSimS != 0 {
		e.float(`,"arrived_sim_s":`, jr.ArrivedSimS)
	}
	if jr.State != "" {
		e.str(`,"state":`, jr.State)
	}
	if jr.Epoch != 0 {
		e.b = append(e.b, `,"epoch":`...)
		e.b = strconv.AppendInt(e.b, int64(jr.Epoch), 10)
	}
	if jr.StartedSimS != 0 {
		e.float(`,"started_sim_s":`, jr.StartedSimS)
	}
	if jr.FinishedSimS != 0 {
		e.float(`,"finished_sim_s":`, jr.FinishedSimS)
	}
	if jr.PredictedFinishSimS != 0 {
		e.float(`,"predicted_finish_sim_s":`, jr.PredictedFinishSimS)
	}
	if jr.ResponseS != 0 {
		e.float(`,"response_s":`, jr.ResponseS)
	}
	if jr.Device != "" {
		e.str(`,"device":`, jr.Device)
	}
	if jr.Partner != "" {
		e.str(`,"partner":`, jr.Partner)
	}
	if jr.DeadlineMet != nil {
		e.b = strconv.AppendBool(append(e.b, `,"deadline_met":`...), *jr.DeadlineMet)
	}
	if jr.Error != "" {
		e.str(`,"error":`, jr.Error)
	}
	e.b = append(e.b, '}')
}

// snapshot writes the snapshot document: {"version","last_seq","state"}
// with every State field omitempty.
func (e *encoder) snapshot(sf *snapshotFile) {
	e.b = append(e.b, `{"version":`...)
	e.b = strconv.AppendInt(e.b, int64(sf.Version), 10)
	e.uint(`,"last_seq":`, sf.LastSeq)
	e.b = append(e.b, `,"state":`...)
	st := sf.State
	if st == nil {
		e.b = append(e.b, `null}`...)
		return
	}
	// Every field may be absent, so each present one is written after a
	// comma, and the first comma becomes the opening brace.
	n0 := len(e.b)
	e.floatPtr(`,"cap_watts":`, st.CapWatts)
	e.floatPtr(`,"pp0_watts":`, st.PP0Watts)
	e.floatPtr(`,"pp1_watts":`, st.PP1Watts)
	if st.Policy != "" {
		e.str(`,"policy":`, st.Policy)
	}
	if st.SimClockS != 0 {
		e.float(`,"sim_clock_s":`, st.SimClockS)
	}
	e.heat(st.Heat)
	if len(st.Jobs) > 0 {
		e.b = append(e.b, `,"jobs":[`...)
		for i, jr := range st.Jobs {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			if jr == nil {
				e.b = append(e.b, "null"...)
			} else {
				e.job(jr)
			}
		}
		e.b = append(e.b, ']')
	}
	if len(e.b) == n0 {
		e.b = append(e.b, '{')
	} else {
		e.b[n0] = '{'
	}
	e.b = append(e.b, "}}"...)
}

// AppendJob appends jr's JSON to b: the journal's encoding of a job,
// byte-equal to json.Marshal(jr), and the daemon's one wire form of it
// (the submit ack, GET /v1/jobs/{id}, each element of GET /v1/jobs). A
// value json.Marshal would refuse — NaN or ±Inf, which no admitted job
// carries — is left out.
func AppendJob(b []byte, jr *JobRecord) []byte {
	e := encoder{b: b}
	e.job(jr)
	return e.b
}

// appendRecordJSON appends r's JSON payload to b.
func appendRecordJSON(b []byte, r *Record) ([]byte, error) {
	e := encoder{b: b}
	e.record(r)
	return e.b, e.err
}

// appendSnapshot appends the snapshot document's JSON to b.
func appendSnapshot(b []byte, sf *snapshotFile) ([]byte, error) {
	e := encoder{b: b}
	e.snapshot(sf)
	return e.b, e.err
}

// jsonFloat appends v the way encoding/json encodes a float64: shortest
// representation, fixed notation except for very small or very large
// magnitudes, and a two-digit negative exponent cut to one ("1e-07" →
// "1e-7"). NaN and ±Inf have no JSON form (json.Marshal refuses them);
// an encoder that must refuse them too checks first.
func jsonFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	if abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(b, v, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, v, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// jsonTime appends t quoted in RFC 3339 with nanoseconds, as
// time.Time.MarshalJSON writes it. Where MarshalJSON refuses the value
// — a year outside 0–9999, a zone offset of 24 hours or more — jsonTime
// reports the same error and still appends the formatted bytes, so a
// caller that cannot fail writes what it always wrote.
func jsonTime(b []byte, t time.Time) ([]byte, error) {
	b = append(b, '"')
	n0 := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	var err error
	switch {
	case b[n0+len("9999")] != '-': // the year is exactly four digits wide
		err = errYear
	case b[len(b)-1] != 'Z':
		c := b[len(b)-len("Z07:00")]
		if h := b[len(b)-len("07:00"):]; ('0' <= c && c <= '9') || 10*(h[0]-'0')+(h[1]-'0') >= 24 {
			err = errZone
		}
	}
	return append(b, '"'), err
}

var (
	errYear = errors.New("Time.MarshalJSON: year outside of range [0,9999]")
	errZone = errors.New("Time.MarshalJSON: timezone hour outside of range [0,23]")
)

// jsonString appends s as a JSON string. The fast path covers printable
// ASCII that encoding/json leaves alone — no quotes, backslashes, or
// the HTML-significant <, >, & — which is every ID, state, and program
// name; anything else — user-controlled labels and error text — takes
// the escaping path.
func jsonString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return jsonStringSlow(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

const hexDigits = "0123456789abcdef"

// jsonStringSlow escapes as encoding/json does by default: short escapes
// for backspace, form feed, newline, return and tab; a six-character
// u-escape for the other control bytes, for <, >, &, and for the
// JavaScript line separators U+2028 and U+2029; and the escaped U+FFFD
// for each byte of invalid UTF-8.
func jsonStringSlow(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case c == '"' || c == '\\':
				b = append(b, '\\', c)
			case c == '\b':
				b = append(b, '\\', 'b')
			case c == '\f':
				b = append(b, '\\', 'f')
			case c == '\n':
				b = append(b, '\\', 'n')
			case c == '\r':
				b = append(b, '\\', 'r')
			case c == '\t':
				b = append(b, '\\', 't')
			case c < 0x20 || c == '<' || c == '>' || c == '&':
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			default:
				b = append(b, c)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			b = append(b, s[i:i+size]...)
		}
		i += size
	}
	return append(b, '"')
}
