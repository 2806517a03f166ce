package server

import (
	"io"
	"strconv"
	"sync"

	"corun/internal/jsonenc"
)

// This file is the POST /v1/jobs near-zero-alloc toolkit: pooled
// request/response buffers, slab-allocated job records, and the one
// JSON encoder of a job's HTTP form (the submit ack, GET
// /v1/jobs/{id} and each element of GET /v1/jobs). The encoder writes
// what encoding/json writes — internal/jsonenc holds the escaping,
// float and time rules, shared with the journal's encoder — without
// the reflection walk and the per-request encoder state.

// reqBuf is a pooled scratch buffer, reused first for the request
// body and then for the response encoding (the decoded spec does not
// alias the body — encoding/json copies string fields).
type reqBuf struct{ b []byte }

var reqBufPool = sync.Pool{New: func() any { return &reqBuf{b: make([]byte, 0, 2048)} }}

// readBody reads r to EOF into buf's capacity, growing it only when a
// body outgrows what previous requests already paid for.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// arenaBlock is the slab size of the job arena: ~100 KiB of Job
// records claimed at once instead of one GC allocation per submit.
const arenaBlock = 256

// jobArena hands out preallocated Job records. Records are never
// freed individually; a slab is collected once every job in it has
// been superseded by a published transition snapshot (jobs all reach
// a terminal state, so slabs do not pin memory indefinitely).
type jobArena struct {
	mu    sync.Mutex
	block []Job
}

func (a *jobArena) get() *Job {
	a.mu.Lock()
	if len(a.block) == 0 {
		a.block = make([]Job, arenaBlock)
	}
	j := &a.block[0]
	a.block = a.block[1:]
	a.mu.Unlock()
	return j
}

// appendPaddedInt appends n zero-padded to at least width digits —
// fmt.Sprintf("%06d", n) without the format-string walk.
func appendPaddedInt(b []byte, n int64, width int) []byte {
	var tmp [20]byte
	s := strconv.AppendInt(tmp[:0], n, 10)
	for pad := width - len(s); pad > 0; pad-- {
		b = append(b, '0')
	}
	return append(b, s...)
}

// appendJobJSON encodes one job's HTTP form: always id, program, scale,
// label, state, submitted_at and arrived_sim_s, the other fields only
// when set, in the order below, escaped and formatted as encoding/json
// would. FuzzAppendJobJSON holds it to json.Marshal of the schema
// spelled as a tagged struct.
func appendJobJSON(b []byte, j *Job) []byte {
	b = append(b, `{"id":`...)
	b = jsonenc.String(b, j.ID)
	b = append(b, `,"program":`...)
	b = jsonenc.String(b, j.Program)
	b = append(b, `,"scale":`...)
	b = jsonenc.Float(b, j.Scale)
	b = append(b, `,"label":`...)
	b = jsonenc.String(b, j.Label)
	if j.DeadlineS != 0 {
		b = append(b, `,"deadline_s":`...)
		b = jsonenc.Float(b, j.DeadlineS)
	}
	b = append(b, `,"state":`...)
	b = jsonenc.String(b, j.State)
	b = append(b, `,"submitted_at":`...)
	b, _ = jsonenc.Time(b, j.SubmittedAt) // a UTC stamp of now, or one replayed from RFC 3339: never refused
	if j.Tenant != "" {
		b = append(b, `,"tenant":`...)
		b = jsonenc.String(b, j.Tenant)
	}
	if j.Priority != "" {
		b = append(b, `,"priority":`...)
		b = jsonenc.String(b, j.Priority)
	}
	if j.Epoch != 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendInt(b, int64(j.Epoch), 10)
	}
	b = append(b, `,"arrived_sim_s":`...)
	b = jsonenc.Float(b, j.ArrivedSimS)
	if j.StartedSimS != 0 {
		b = append(b, `,"started_sim_s":`...)
		b = jsonenc.Float(b, j.StartedSimS)
	}
	if j.FinishedSimS != 0 {
		b = append(b, `,"finished_sim_s":`...)
		b = jsonenc.Float(b, j.FinishedSimS)
	}
	if j.PredictedFinishSimS != 0 {
		b = append(b, `,"predicted_finish_sim_s":`...)
		b = jsonenc.Float(b, j.PredictedFinishSimS)
	}
	if j.ResponseS != 0 {
		b = append(b, `,"response_s":`...)
		b = jsonenc.Float(b, j.ResponseS)
	}
	if j.Device != "" {
		b = append(b, `,"device":`...)
		b = jsonenc.String(b, j.Device)
	}
	if j.Partner != "" {
		b = append(b, `,"partner":`...)
		b = jsonenc.String(b, j.Partner)
	}
	if j.DeadlineMet != nil {
		if *j.DeadlineMet {
			b = append(b, `,"deadline_met":true`...)
		} else {
			b = append(b, `,"deadline_met":false`...)
		}
	}
	if j.Error != "" {
		b = append(b, `,"error":`...)
		b = jsonenc.String(b, j.Error)
	}
	return append(b, '}')
}
