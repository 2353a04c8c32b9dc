package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// Append encoders. The JSONL and Chrome writers render each record
// field by field into a reused byte buffer instead of going through
// encoding/json's reflection, but the bytes must be exactly what
// encoding/json would write: the reference test (FuzzEventEncoders)
// holds the two paths to byte identity. The rules that matter:
//
//   - strings are HTML-escaped (<, > and & become \u003c, \u003e and
//     \u0026), U+2028 and U+2029 are escaped, and each invalid UTF-8
//     byte becomes \ufffd. appendString copies plain ASCII through and
//     hands every other string to json.Marshal, so those rules live in
//     one place;
//   - floats use the shortest 'f' form, switching to 'e' below 1e-6
//     and from 1e21 up, with a one-digit negative exponent ("1e-7");
//     NaN and ±Inf are an UnsupportedValueError, as encoding/json
//     reports them;
//   - omitempty drops "", 0 and ±0.0.

// plain marks the bytes encoding/json copies into a string unchanged:
// printable ASCII other than the quote, the backslash and the HTML
// characters.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString appends s as a JSON string, as encoding/json writes it.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			js, _ := json.Marshal(s) // a string always marshals
			return append(b, js...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends a finite f as encoding/json writes a float64.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json writes e-07 as e-7.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// checkFloat reports the error encoding/json gives for a float it
// cannot encode.
func checkFloat(f float64) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return nil
}

// appendInt appends key (which carries its leading comma and colon)
// and v.
func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// Omitempty helpers: key carries its leading comma and colon.

func optString(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	return appendString(append(b, key...), v)
}

func optInt(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return appendInt(b, key, v)
}

func optFloat(b []byte, key string, v float64) []byte {
	if v == 0 {
		return b
	}
	return appendFloat(append(b, key...), v)
}

// flushAt is the buffered size at which the batch writers hand their
// buffer to the writer.
const flushAt = 32 << 10
