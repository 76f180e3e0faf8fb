// Package jsonenc holds the append-style primitives of the hand-written
// JSON encoders on the simulation's hot paths (the worksite wire codec and
// the trace line encoder, the campaign result export and the result-cache
// key). Each primitive appends exactly the bytes
// encoding/json emits for the same value, with Marshal's default HTML
// escaping. The fallible ones take and return an ok flag, cleared for the
// inputs they do not cover: an encoder threads one flag through a whole
// value and, if it ends false, discards the bytes and falls back to
// encoding/json. The primitives never allocate unless dst must grow.
package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendString appends s as a JSON string. It covers printable ASCII that
// needs no escaping: any byte outside 0x20–0x7e, or one of `"`, `\`, `<`,
// `>` and `&` (which encoding/json escapes), clears ok.
//
//worksim:hotpath
func AppendString(dst []byte, s string, ok bool) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	dst = append(dst, '"')
	return dst, ok
}

// AppendText appends s as a JSON string, like AppendString, and also
// covers non-ASCII text: any valid UTF-8 that encoding/json copies
// unchanged. Invalid UTF-8, U+2028, U+2029 and the ASCII bytes AppendString
// rejects, except DEL, clear ok. AppendString stays the variant for the
// tick's short ASCII names because the compiler inlines it.
func AppendText(dst []byte, s string, ok bool) ([]byte, bool) {
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, n := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && n == 1 || r == '\u2028' || r == '\u2029' {
				return dst, false
			}
			i += n
			continue
		}
		if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return dst, false
		}
		i++
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	dst = append(dst, '"')
	return dst, ok
}

// AppendFloat appends f as encoding/json formats a float64: the shortest
// representation in 'f' form, or in 'e' form when |f| < 1e-6 or |f| >= 1e21,
// with a two-digit negative exponent shortened (e-09 becomes e-9). NaN and
// ±Inf, which encoding/json rejects, clear ok.
//
//worksim:hotpath
func AppendFloat(dst []byte, f float64, ok bool) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, ok
}

// AppendBool appends b as a JSON boolean.
//
//worksim:hotpath
func AppendBool(dst []byte, b bool) []byte {
	if b {
		dst = append(dst, "true"...)
	} else {
		dst = append(dst, "false"...)
	}
	return dst
}
