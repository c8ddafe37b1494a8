// Package jsonwire is the one JSON scanner and writer behind the hand-written
// codecs of the hot-path bodies: the search and trending answer
// (query.Result, both ends) and the search and check-in request bodies
// (internal/wire: the typed client appends them, the server decodes them).
//
// The codecs mirror encoding/json exactly rather than define a format of
// their own: a Writer produces json.Marshal's bytes, and a Decoder accepts
// exactly the documents encoding/json accepts and leaves the same value
// behind. encoding/json stays the reference their differential tests hold
// them to. That is why no codec is a MarshalJSON / UnmarshalJSON method:
// encoding/json re-scans a Marshaler's output and pre-scans an Unmarshaler's
// input, which would cost about what the reflection did, and would leave the
// tests no independent reference to compare against.
package jsonwire

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Writer appends JSON to B the way encoding/json writes it.
type Writer struct {
	// B is the encoding so far.
	B []byte
	// Err is the first value json.Marshal would refuse (a NaN or infinite
	// float, as a *json.UnsupportedValueError); the bytes written around it
	// are not a valid encoding.
	Err error
}

// Raw appends s as it is: punctuation and pre-quoted keys.
func (w *Writer) Raw(s string) { w.B = append(w.B, s...) }

// Int appends an integer.
func (w *Writer) Int(v int64) { w.B = strconv.AppendInt(w.B, v, 10) }

// Bool appends true or false.
func (w *Writer) Bool(v bool) {
	if v {
		w.Raw("true")
	} else {
		w.Raw("false")
	}
}

// Float appends f the way encoding/json does: like ES6's number-to-string,
// 'f' unless |f| is below 1e-6 or at least 1e21, with e-07 cleaned to e-7.
func (w *Writer) Float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.Err == nil {
			w.Err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.B, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	w.B = b
}

// htmlSafe marks the ASCII bytes encoding/json writes unescaped: printable,
// and neither a quote, a backslash nor one of <, >, & (escaped so that a
// document can be embedded in HTML).
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// String appends s quoted and escaped as encoding/json does: the short
// escapes, other control bytes and the HTML-unsafe ones as \u00XX, each
// invalid UTF-8 byte as the escaped U+FFFD, and U+2028 / U+2029 escaped.
func (w *Writer) String(s string) {
	b := append(w.B, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029: // LINE and PARAGRAPH SEPARATOR
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	w.B = append(b, '"')
}
