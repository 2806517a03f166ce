package server

import (
	"io"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// This file is the POST /v1/jobs near-zero-alloc toolkit: pooled
// request/response buffers, slab-allocated job records, and the one
// JSON encoder of a job's HTTP form (the submit ack, GET
// /v1/jobs/{id} and each element of GET /v1/jobs). The encoders write
// what encoding/json writes — same escaping, same float and time
// formats — without the reflection walk and the per-request encoder
// state.

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
	b = appendJSONString(b, j.ID)
	b = append(b, `,"program":`...)
	b = appendJSONString(b, j.Program)
	b = append(b, `,"scale":`...)
	b = appendJSONFloat(b, j.Scale)
	b = append(b, `,"label":`...)
	b = appendJSONString(b, j.Label)
	if j.DeadlineS != 0 {
		b = append(b, `,"deadline_s":`...)
		b = appendJSONFloat(b, j.DeadlineS)
	}
	b = append(b, `,"state":`...)
	b = appendJSONString(b, j.State)
	b = append(b, `,"submitted_at":"`...)
	b = j.SubmittedAt.AppendFormat(b, time.RFC3339Nano)
	b = append(b, '"')
	if j.Tenant != "" {
		b = append(b, `,"tenant":`...)
		b = appendJSONString(b, j.Tenant)
	}
	if j.Priority != "" {
		b = append(b, `,"priority":`...)
		b = appendJSONString(b, j.Priority)
	}
	if j.Epoch != 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendInt(b, int64(j.Epoch), 10)
	}
	b = append(b, `,"arrived_sim_s":`...)
	b = appendJSONFloat(b, j.ArrivedSimS)
	if j.StartedSimS != 0 {
		b = append(b, `,"started_sim_s":`...)
		b = appendJSONFloat(b, j.StartedSimS)
	}
	if j.FinishedSimS != 0 {
		b = append(b, `,"finished_sim_s":`...)
		b = appendJSONFloat(b, j.FinishedSimS)
	}
	if j.PredictedFinishSimS != 0 {
		b = append(b, `,"predicted_finish_sim_s":`...)
		b = appendJSONFloat(b, j.PredictedFinishSimS)
	}
	if j.ResponseS != 0 {
		b = append(b, `,"response_s":`...)
		b = appendJSONFloat(b, j.ResponseS)
	}
	if j.Device != "" {
		b = append(b, `,"device":`...)
		b = appendJSONString(b, j.Device)
	}
	if j.Partner != "" {
		b = append(b, `,"partner":`...)
		b = appendJSONString(b, j.Partner)
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
		b = appendJSONString(b, j.Error)
	}
	return append(b, '}')
}

// appendJSONFloat appends v the way encoding/json encodes a float64:
// shortest representation, fixed notation except for very small or
// very large magnitudes, and a two-digit negative exponent cut to one
// ("1e-07" → "1e-7").
func appendJSONFloat(b []byte, v float64) []byte {
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

// appendJSONString appends s as a JSON string. The fast path covers
// printable ASCII that encoding/json leaves alone — no quotes,
// backslashes, or the HTML-significant <, >, & — which is every ID,
// state, and program name; anything else — user-controlled labels and
// error text — takes the escaping path.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendJSONStringSlow(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

const hexDigits = "0123456789abcdef"

// appendJSONStringSlow escapes as encoding/json does by default: short
// escapes for backspace, form feed, newline, return and tab; a
// six-character u-escape for the other control bytes, for <, >, &,
// and for the JavaScript line separators U+2028 and U+2029; and the
// escaped U+FFFD for each byte of invalid UTF-8.
func appendJSONStringSlow(b []byte, s string) []byte {
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
