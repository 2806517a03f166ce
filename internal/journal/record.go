// Package journal is corund's durability layer: an append-only
// write-ahead log of CRC32-framed, length-prefixed records, plus
// snapshot-with-compaction and crash recovery. Every externally
// acknowledged state change of the daemon — a job admitted, a job
// lifecycle transition, a power-cap change, a policy change — is one
// Record appended to the log; replaying snapshot + log tail rebuilds
// the full server state after a crash or redeploy.
//
// Durability is FsyncAlways (the default) or FsyncNever, with group
// commit: concurrent appenders waiting on the same fsync
// share one syscall. A failed commit is never re-synced: the journal
// discards everything past its durable offset and the appenders
// append again. Once the log outgrows a size threshold the
// journal writes an atomic snapshot of the materialized State and
// truncates the log. Recovery is tolerant of a torn or corrupt tail
// record — the bad suffix is truncated, never fatal — because a torn
// final write is the expected crash artifact of an append-only log.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"time"
)

// Type tags a Record with the state change it captures.
type Type string

// The journaled event types. A submitted record carries the job's
// full admission-time fields; a state record carries the job's full
// post-transition view (so replay is a plain replace, idempotent
// under re-delivery); cap and policy records carry the new value.
const (
	TypeJobSubmitted  Type = "job_submitted"
	TypeJobState      Type = "job_state"
	TypeCapChanged    Type = "cap_changed"
	TypePolicyChanged Type = "policy_changed"
)

// JobRecord is one job: the admission fields plus whatever outcome
// fields the job has accumulated. It is the daemon's job record itself
// (server.Job), so recovery restores exactly what was journaled. The
// tags are the journal's encoding; the daemon writes its HTTP form
// with its own encoder.
type JobRecord struct {
	ID          string    `json:"id"`
	Program     string    `json:"program,omitempty"`
	Scale       float64   `json:"scale,omitempty"`
	Label       string    `json:"label,omitempty"`
	DeadlineS   float64   `json:"deadline_s,omitempty"`
	Tenant      string    `json:"tenant,omitempty"` // empty only on journals older than admission
	Priority    string    `json:"priority,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	ArrivedSimS float64   `json:"arrived_sim_s,omitempty"` // scheduling clock at admission

	State string `json:"state,omitempty"`
	Epoch int    `json:"epoch,omitempty"` // 1-based round that served the job; 0 while queued

	// PredictedFinishSimS is the model's estimate published at planning
	// (model policies only); ResponseS is FinishedSimS - ArrivedSimS.
	StartedSimS         float64 `json:"started_sim_s,omitempty"`
	FinishedSimS        float64 `json:"finished_sim_s,omitempty"`
	PredictedFinishSimS float64 `json:"predicted_finish_sim_s,omitempty"`
	ResponseS           float64 `json:"response_s,omitempty"`

	// Partner is the job co-run beside for the longest overlap, empty
	// if the job ran alone; DeadlineMet is set for done jobs that set a
	// deadline.
	Device      string `json:"device,omitempty"`
	Partner     string `json:"partner,omitempty"`
	DeadlineMet *bool  `json:"deadline_met,omitempty"`
	Error       string `json:"error,omitempty"`
}

// Record is one journal entry. Seq is assigned by the journal at
// append time, strictly increasing across snapshots; recovery uses it
// to skip log records already folded into a snapshot.
type Record struct {
	Seq  uint64 `json:"seq,omitempty"`
	Type Type   `json:"type"`

	// Job carries the full job view for TypeJobSubmitted and
	// TypeJobState records.
	Job *JobRecord `json:"job,omitempty"`

	// CapWatts is the new power cap for TypeCapChanged (pointer so an
	// explicit 0 = uncapped survives encoding).
	CapWatts *float64 `json:"cap_watts,omitempty"`

	// PP0Watts and PP1Watts are the per-plane caps accompanying a
	// TypeCapChanged record (nil = that plane unconfigured). Absent on
	// journals written before the domain model existed, which replays
	// as no plane caps.
	PP0Watts *float64 `json:"pp0_watts,omitempty"`
	PP1Watts *float64 `json:"pp1_watts,omitempty"`

	// Policy is the new scheduling policy for TypePolicyChanged.
	Policy string `json:"policy,omitempty"`

	// SimClockS, on TypeJobState records of a finished epoch, is the
	// node's scheduling clock after that epoch; replay keeps the max.
	SimClockS float64 `json:"sim_clock_s,omitempty"`
}

// Validate checks that the record carries the payload its type needs.
func (r Record) Validate() error {
	switch r.Type {
	case TypeJobSubmitted, TypeJobState:
		if r.Job == nil || r.Job.ID == "" {
			return fmt.Errorf("journal: %s record without a job ID", r.Type)
		}
	case TypeCapChanged:
		if r.CapWatts == nil {
			return fmt.Errorf("journal: %s record without a cap", r.Type)
		}
	case TypePolicyChanged:
		if r.Policy == "" {
			return fmt.Errorf("journal: %s record without a policy", r.Type)
		}
	default:
		return fmt.Errorf("journal: unknown record type %q", r.Type)
	}
	return nil
}

// Frame layout: a 4-byte little-endian payload length, a 4-byte
// little-endian IEEE CRC32 of the payload, then the payload (the
// record's JSON encoding, written by encode.go). The CRC covers only
// the payload; a bad length is caught by the MaxRecordBytes bound or
// by the CRC of whatever bytes the bogus length selects. A payload is
// never empty
// (a record's JSON is at least "{}"), so a zero length field is not a
// frame: followed by nothing but zeros it is the end of the log — the
// preallocated, never-written rest of the file — and anything else
// after it is corruption. It has to be its own case because the CRC
// cannot catch it: the CRC-32 of no bytes is 0, so eight zero bytes
// are a header that checks out.
const frameHeader = 8

// MaxRecordBytes bounds one record's payload. Anything larger in the
// length field is corruption, not data — the bound keeps a flipped
// length bit from turning into a multi-gigabyte allocation.
const MaxRecordBytes = 1 << 20

// Framing errors. ErrTornRecord marks an incomplete final frame (the
// classic crash artifact: the process died mid-write); ErrCorrupt
// marks a frame whose bytes are all present but wrong (CRC mismatch,
// absurd length, undecodable payload). Recovery treats both the same
// way — truncate the log from the bad frame on — but callers that
// scan buffers need to tell "feed me more bytes" from "give up".
//
// ErrEndOfLog is neither: a zero length field with only zeros behind
// it, which is where a preallocated log ends.
var (
	ErrTornRecord = errors.New("journal: torn record (short frame)")
	ErrCorrupt    = errors.New("journal: corrupt record")
	ErrEndOfLog   = errors.New("journal: end of log (zeros to the end)")
)

// zeroSuffix counts the zero bytes b ends in, a page at a time: the
// tail a killed writer leaves is most of a preallocation chunk.
func zeroSuffix(b []byte) int {
	n := 0
	for len(b)-n >= len(zeroPage) && bytes.Equal(b[len(b)-n-len(zeroPage):len(b)-n], zeroPage[:]) {
		n += len(zeroPage)
	}
	for n < len(b) && b[len(b)-n-1] == 0 {
		n++
	}
	return n
}

var zeroPage [4096]byte

// AppendRecord appends the framed encoding of r to dst and returns
// the extended slice. The payload is encoded in place behind a header
// filled in afterwards, so a dst with room costs no allocation.
func AppendRecord(dst []byte, r Record) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	n0 := len(dst)
	b, err := appendRecordJSON(append(dst, make([]byte, frameHeader)...), &r)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding record: %w", err)
	}
	payload := b[n0+frameHeader:]
	if len(payload) > MaxRecordBytes {
		return nil, fmt.Errorf("journal: record payload %d bytes exceeds %d", len(payload), MaxRecordBytes)
	}
	binary.LittleEndian.PutUint32(b[n0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[n0+4:], crc32.ChecksumIEEE(payload))
	return b, nil
}

// DecodeRecord decodes the first framed record in b, returning the
// record and the number of bytes consumed. It never panics on
// arbitrary input: a frame extending past b is ErrTornRecord; a
// complete frame with a CRC mismatch, oversized length, or payload
// that fails to decode or validate is ErrCorrupt; and a zero length
// field is ErrEndOfLog when the rest of b is zero too, ErrCorrupt
// (empty payload) when it is not.
func DecodeRecord(b []byte) (Record, int, error) {
	r, n, _, err := decodeFrame(b, nil)
	return r, n, err
}

// decodeFrame is DecodeRecord with the read path's extras: intern is
// the Open-wide string table (nil = none), and slow reports a payload
// the schema decoder (decode.go) declined and json.Unmarshal decoded.
func decodeFrame(b []byte, intern map[string]string) (r Record, consumed int, slow bool, err error) {
	if len(b) < frameHeader {
		return Record{}, 0, false, ErrTornRecord
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n == 0 {
		if zeroSuffix(b) == len(b) {
			return Record{}, 0, false, ErrEndOfLog
		}
		return Record{}, 0, false, fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	if n > MaxRecordBytes {
		return Record{}, 0, false, fmt.Errorf("%w: length %d exceeds %d", ErrCorrupt, n, MaxRecordBytes)
	}
	if uint32(len(b)-frameHeader) < n {
		return Record{}, 0, false, ErrTornRecord
	}
	payload := b[frameHeader : frameHeader+int(n)]
	if got := crc32.ChecksumIEEE(payload); got != binary.LittleEndian.Uint32(b[4:8]) {
		return Record{}, 0, false, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	if !fastRecord(payload, intern, &r) {
		if err := json.Unmarshal(payload, &r); err != nil {
			return Record{}, 0, false, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		slow = true
	}
	if err := r.Validate(); err != nil {
		return Record{}, 0, false, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return r, frameHeader + int(n), slow, nil
}
