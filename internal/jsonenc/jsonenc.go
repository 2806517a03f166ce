// Package jsonenc is the one copy of encoding/json's output rules for
// the hand-written encoders on the daemon's hot paths: the HTTP job
// body (internal/server) and the journal's records and snapshots
// (internal/journal). Each function appends what json.Marshal writes
// for one value — same escaping, same float and time formats — without
// the reflection walk. The encoders built on it are held to
// json.Marshal byte for byte by FuzzAppendJobJSON and FuzzAppendRecord.
package jsonenc

import (
	"errors"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// Float appends v the way encoding/json encodes a float64: shortest
// representation, fixed notation except for very small or very large
// magnitudes, and a two-digit negative exponent cut to one ("1e-07" →
// "1e-7"). NaN and ±Inf have no JSON form (json.Marshal refuses them);
// an encoder that must refuse them too checks first.
func Float(b []byte, v float64) []byte {
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

// Time appends t quoted in RFC 3339 with nanoseconds, as
// time.Time.MarshalJSON writes it. Where MarshalJSON refuses the value
// — a year outside 0–9999, a zone offset of 24 hours or more — Time
// reports the same error and still appends the formatted bytes, so a
// caller that cannot fail writes what it always wrote.
func Time(b []byte, t time.Time) ([]byte, error) {
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

// String appends s as a JSON string. The fast path covers printable
// ASCII that encoding/json leaves alone — no quotes, backslashes, or
// the HTML-significant <, >, & — which is every ID, state, and program
// name; anything else — user-controlled labels and error text — takes
// the escaping path.
func String(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return stringSlow(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

const hexDigits = "0123456789abcdef"

// stringSlow escapes as encoding/json does by default: short escapes
// for backspace, form feed, newline, return and tab; a six-character
// u-escape for the other control bytes, for <, >, &, and for the
// JavaScript line separators U+2028 and U+2029; and the escaped U+FFFD
// for each byte of invalid UTF-8.
func stringSlow(b []byte, s string) []byte {
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
