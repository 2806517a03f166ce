package journal

// Fuzz target for the WAL record framing — the bytes the daemon
// trusts after a crash. The seed corpus covers the interesting
// classes (a valid frame, a truncated length, a flipped CRC byte, a
// zero length field over zeros, over garbage, and behind a valid
// frame); additional literal seeds live in
// testdata/fuzz/FuzzDecodeRecord. Properties: DecodeRecord never
// panics on arbitrary input, corrupt or torn input yields an error
// (never a record), end-of-log is reported for all-zero input and
// nothing else, and an accepted record validates and survives an
// encode/decode round trip.

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func FuzzDecodeRecord(f *testing.F) {
	w := 15.5
	valid, err := AppendRecord(nil, Record{Seq: 7, Type: TypeCapChanged, CapWatts: &w})
	if err != nil {
		f.Fatal(err)
	}
	jobFrame, err := AppendRecord(nil, jobRecord("job-000042"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(jobFrame)
	f.Add(valid[:6])            // truncated length header
	f.Add(valid[:len(valid)-2]) // truncated payload
	flipped := append([]byte(nil), valid...)
	flipped[5] ^= 0xff // flipped CRC byte
	f.Add(flipped)
	f.Add(make([]byte, frameHeader)) // zero length field, zero CRC: the shortest end of log
	f.Add([]byte{})
	f.Add(append(append([]byte(nil), valid...), valid...))                              // two frames
	f.Add(make([]byte, 4096))                                                           // a preallocated tail
	f.Add(append(make([]byte, 12), 0x2a, 0, 0, 0, 0xde, 0xad))                          // zero header, then garbage
	f.Add(append(append(append([]byte(nil), valid...), valid...), make([]byte, 64)...)) // valid frames, then zeros

	f.Fuzz(func(t *testing.T, b []byte) {
		r, n, err := DecodeRecord(b)
		if err != nil {
			if n != 0 {
				t.Fatalf("error %v consumed %d bytes", err, n)
			}
			if !errors.Is(err, ErrTornRecord) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrEndOfLog) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			if allZero := len(b) >= frameHeader && len(bytes.Trim(b, "\x00")) == 0; errors.Is(err, ErrEndOfLog) != allZero {
				t.Fatalf("all-zero input %t, error %v", allZero, err)
			}
			return
		}
		if n < frameHeader || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("decoded record fails validation: %v", err)
		}
		// Accepted records round-trip bit-for-bit through the framing.
		again, err := AppendRecord(nil, r)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		r2, _, err := DecodeRecord(again)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", r2, r)
		}
	})
}
