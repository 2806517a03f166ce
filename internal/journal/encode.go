package journal

// The journal's write path: a hand encoder of the package's own schema
// (Record, JobRecord, State and the snapshot document), the mirror of
// decode.go. Its rule is byte-identical: for every value it writes
// exactly what json.Marshal writes — the tags' field order and
// omitempty, internal/jsonenc's escaping, float and time formats — and
// it fails exactly where json.Marshal fails (NaN, ±Inf, a time
// MarshalJSON refuses). So the log and the snapshot are the bytes the
// reflection encoder wrote, old journals replay, and encoding/json
// stays the oracle (FuzzAppendRecord, TestSnapshotMatchesMarshal).
//
// A new journaled field needs one line in its struct's function below
// and one case in decode.go; TestSchemaGuard fails until it has both.

import (
	"fmt"
	"math"
	"strconv"

	"corun/internal/jsonenc"
)

// encoder appends one document; the first value json.Marshal would
// refuse is kept in err and the bytes are then garbage.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) str(key, s string) {
	e.b = append(e.b, key...)
	e.b = jsonenc.String(e.b, s)
}

func (e *encoder) float(key string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("json: unsupported value: %v", v)
		}
		return
	}
	e.b = append(e.b, key...)
	e.b = jsonenc.Float(e.b, v)
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
// "pp0_watts"?,"pp1_watts"?,"policy"?,"sim_clock_s"?}.
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
	if e.b, err = jsonenc.Time(e.b, jr.SubmittedAt); err != nil && e.err == nil {
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
