package jsonwire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Decoder is one pass over a JSON document, without reflection. A codec
// decodes a type by handing Object each member's key and calling the value
// method of the member's field, so it mirrors encoding/json's rules: object
// keys match exactly, then case-insensitively (FoldKey); null leaves strings,
// numbers, bools and structs alone and sets slices to nil; a repeated member
// decodes into what is already there (List, Slot); invalid UTF-8 and lone
// surrogates become U+FFFD; numbers parse with strconv (a fraction or an
// exponent in an integer field is an error, as is any overflow); nesting
// deeper than 10 000 is an error.
//
// Every value method starts at the value's first byte (whitespace already
// skipped) and returns after its last. The decoded strings never alias the
// input: NewDecoder copies the document into one string whose substrings
// back every string that needed no unescaping, so the caller may reuse the
// input as soon as NewDecoder returns.
type Decoder struct {
	s     string
	i     int
	depth int
}

// NewDecoder returns a decoder at the start of data.
func NewDecoder(data []byte) Decoder { return Decoder{s: string(data)} }

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

func (d *Decoder) syntax(context string) error {
	if d.i >= len(d.s) {
		return errors.New("unexpected end of input")
	}
	return fmt.Errorf("character %q at offset %d %s", d.s[d.i], d.i, context)
}

// Mismatch reports a value of the wrong kind for its field, named by want —
// what encoding/json reports as an *json.UnmarshalTypeError.
func (d *Decoder) Mismatch(want string) error {
	return fmt.Errorf("offset %d: cannot decode into %s", d.i, want)
}

// Lookahead returns the byte at the read position (0 at the end) without
// consuming it.
func (d *Decoder) Lookahead() byte {
	if d.i < len(d.s) {
		return d.s[d.i]
	}
	return 0
}

// Remaining returns how many bytes of the document are left to read.
func (d *Decoder) Remaining() int { return len(d.s) - d.i }

// Space skips whitespace.
func (d *Decoder) Space() {
	for d.i < len(d.s) {
		switch d.s[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// End requires the rest of the document to be whitespace, as json.Unmarshal
// does after the top-level value.
func (d *Decoder) End() error {
	d.Space()
	if d.i < len(d.s) {
		return d.syntax("after top-level value")
	}
	return nil
}

// Stream decodes the document's first value into an object the way
// json.Decoder.Decode reads one value off a stream: member gets each key,
// null leaves the object alone, anything else (an empty document included)
// is an error, and nothing after the value is looked at — trailing bytes are
// never an error.
func (d *Decoder) Stream(member func(key string) error) error {
	d.Space()
	switch d.Lookahead() {
	case '{':
		return d.Object(member)
	case 'n':
		return d.Literal("null")
	}
	return d.Mismatch("object")
}

// open consumes the '{' or '[' at d.i, one level deeper.
func (d *Decoder) open() error {
	if d.depth++; d.depth > maxDepth {
		return d.syntax("exceeds the maximum nesting depth")
	}
	d.i++
	d.Space()
	return nil
}

// Literal consumes word (true, false or null).
func (d *Decoder) Literal(word string) error {
	if !strings.HasPrefix(d.s[d.i:], word) {
		return d.syntax("in literal " + word)
	}
	d.i += len(word)
	return nil
}

// Object decodes the object at the read position, handing each member's key
// to member with the read position at the member's value.
func (d *Decoder) Object(member func(key string) error) error {
	if err := d.open(); err != nil {
		return err
	}
	if d.Lookahead() == '}' {
		d.i++
		d.depth--
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		d.Space()
		switch d.Lookahead() {
		case ',':
			d.i++
			d.Space()
		case '}':
			d.i++
			d.depth--
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// key consumes an object key and its colon, up to the member's value.
func (d *Decoder) key() (string, error) {
	if d.Lookahead() != '"' {
		return "", d.syntax("looking for beginning of object key string")
	}
	key, err := d.str()
	if err != nil {
		return "", err
	}
	d.Space()
	if d.Lookahead() != ':' {
		return "", d.syntax("after object key")
	}
	d.i++
	d.Space()
	return key, nil
}

// FoldKey returns the name in names that key matches case-insensitively (""
// for none): encoding/json's fallback after an exact match fails.
func FoldKey(key string, names []string) string {
	for _, n := range names {
		if strings.EqualFold(key, n) {
			return n
		}
	}
	return ""
}

// Array decodes the array at the read position, calling elem with the read
// position at each element, and returns the element count.
func (d *Decoder) Array(elem func(i int) error) (int, error) {
	if err := d.open(); err != nil {
		return 0, err
	}
	if d.Lookahead() == ']' {
		d.i++
		d.depth--
		return 0, nil
	}
	for n := 0; ; {
		if err := elem(n); err != nil {
			return n, err
		}
		n++
		d.Space()
		switch d.Lookahead() {
		case ',':
			d.i++
			d.Space()
		case ']':
			d.i++
			d.depth--
			return n, nil
		default:
			return n, d.syntax("after array element")
		}
	}
}

// Slot makes element i of s addressable the way encoding/json does when it
// decodes into a slice: elements already there are reused (i < len), spare
// capacity is re-exposed as it is, and only a full slice grows.
func Slot[T any](s []T, i int) []T {
	switch {
	case i < len(s):
		return s
	case i < cap(s):
		return s[:i+1]
	}
	var zero T
	return append(s, zero)
}

// Truncate ends a slice decode of n elements: an empty array is a fresh
// empty slice, anything else drops what a longer earlier decode left.
func Truncate[T any](s []T, n int) []T {
	if n == 0 {
		return []T{}
	}
	return s[:n]
}

// List decodes the array or null at the read position into *p as
// encoding/json decodes into a slice: null sets nil, each element is decoded
// by elem into its Slot, and Truncate ends it. A slice without room starts
// with capacity hint (when positive), so a list of up to hint elements takes
// one allocation. want names the slice type in a mismatch.
func List[T any](d *Decoder, p *[]T, want string, hint int, elem func(*T) error) error {
	switch d.Lookahead() {
	case 'n':
		*p = nil
		return d.Literal("null")
	case '[':
	default:
		return d.Mismatch(want)
	}
	s := *p
	n, err := d.Array(func(i int) error {
		if cap(s) == 0 && hint > 0 {
			s = make([]T, 0, hint)
		}
		s = Slot(s, i)
		return elem(&s[i])
	})
	if err != nil {
		return err
	}
	*p = Truncate(s, n)
	return nil
}

// Bool decodes a bool field.
func (d *Decoder) Bool(p *bool) error {
	switch d.Lookahead() {
	case 'n':
		return d.Literal("null")
	case 't':
		*p = true
		return d.Literal("true")
	case 'f':
		*p = false
		return d.Literal("false")
	}
	return d.Mismatch("bool")
}

// String decodes a string field.
func (d *Decoder) String(p *string) error {
	switch d.Lookahead() {
	case 'n':
		return d.Literal("null")
	case '"':
		s, err := d.str()
		*p = s
		return err
	}
	return d.Mismatch("string")
}

// numberLiteral returns the number literal at d.i for a numeric field; ok
// is false when the value is null (or an error).
func (d *Decoder) numberLiteral(want string) (lit string, ok bool, err error) {
	switch c := d.Lookahead(); {
	case c == 'n':
		return "", false, d.Literal("null")
	case c == '-' || isDigit(c):
		lit, err := d.number()
		return lit, err == nil, err
	}
	return "", false, d.Mismatch(want)
}

// Float decodes a float64 field.
func (d *Decoder) Float(p *float64) error {
	lit, ok, err := d.numberLiteral("float64")
	if !ok {
		return err
	}
	v, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return d.Mismatch("float64: " + lit)
	}
	*p = v
	return nil
}

// Int64 decodes an int64 field.
func (d *Decoder) Int64(p *int64) error {
	lit, ok, err := d.numberLiteral("int64")
	if !ok {
		return err
	}
	v, err := strconv.ParseInt(lit, 10, 64)
	if err != nil {
		return d.Mismatch("int64: " + lit)
	}
	*p = v
	return nil
}

// Int decodes an int field.
func (d *Decoder) Int(p *int) error {
	lit, ok, err := d.numberLiteral("int")
	if !ok {
		return err
	}
	v, err := strconv.ParseInt(lit, 10, strconv.IntSize)
	if err != nil {
		return d.Mismatch("int: " + lit)
	}
	*p = int(v)
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number consumes a number literal, validated against the JSON grammar
// (strconv alone is more lenient), and returns it.
func (d *Decoder) number() (string, error) {
	s, start := d.s, d.i
	i := start
	digits := func() bool {
		if i >= len(s) || !isDigit(s[i]) {
			return false
		}
		for i < len(s) && isDigit(s[i]) {
			i++
		}
		return true
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	if i < len(s) && s[i] == '0' {
		i++
	} else if !digits() {
		d.i = i
		return "", d.syntax("in numeric literal")
	}
	if i < len(s) && s[i] == '.' {
		if i++; !digits() {
			d.i = i
			return "", d.syntax("after decimal point in numeric literal")
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		if i++; i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			d.i = i
			return "", d.syntax("in exponent of numeric literal")
		}
	}
	d.i = i
	return s[start:i], nil
}

// str consumes a string literal and returns its value: a substring of the
// document when it holds no escape and only valid UTF-8, else a decoded copy.
func (d *Decoder) str() (string, error) {
	start := d.i + 1
	for i := start; i < len(d.s); {
		c := d.s[i]
		switch {
		case c == '"':
			d.i = i + 1
			return d.s[start:i], nil
		case c == '\\' || c < ' ':
			return d.unquote(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRuneInString(d.s[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start, i)
			}
			i += size
		}
	}
	d.i = len(d.s)
	return "", d.syntax("in string literal")
}

// unquote finishes a string literal that needs decoding from i on (the
// bytes from start to i are plain), as encoding/json's unquote does.
func (d *Decoder) unquote(start, i int) (string, error) {
	s := d.s
	b := []byte(s[start:i])
	for i < len(s) {
		switch c := s[i]; {
		case c == '"':
			d.i = i + 1
			return string(b), nil
		case c == '\\':
			if i+1 >= len(s) {
				d.i = len(s)
				return "", d.syntax("in string escape code")
			}
			switch e := s[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(s, i+2)
				if r < 0 {
					d.i = i + 1
					return "", d.syntax("in \\u hexadecimal character escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A valid pair takes the next escape along; anything
					// else stands as U+FFFD and leaves that escape to the
					// next round.
					r2 := rune(-1)
					if i+1 < len(s) && s[i] == '\\' && s[i+1] == 'u' {
						r2 = hex4(s, i+2)
					}
					if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
						r = dec
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.i = i + 1
				return "", d.syntax("in string escape code")
			}
			i += 2
		case c < ' ':
			d.i = i
			return "", d.syntax("in string literal")
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.i = len(s)
	return "", d.syntax("in string literal")
}

// hex4 decodes the four hex digits at s[i:], or returns -1.
func hex4(s string, i int) rune {
	if i+4 > len(s) {
		return -1
	}
	var r rune
	for _, c := range []byte(s[i : i+4]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// Skip consumes one value of any shape (an unknown member), validating it
// as strictly as the rest of the document, nesting limit included.
func (d *Decoder) Skip() error {
	var buf [16]byte
	closers := buf[:0] // of the containers entered, innermost last
	for {
		switch c := d.Lookahead(); {
		case c == '{' || c == '[':
			if err := d.open(); err != nil {
				return err
			}
			closer := byte(']')
			if c == '{' {
				closer = '}'
			}
			if d.Lookahead() == closer {
				d.i++
				d.depth--
				break
			}
			closers = append(closers, closer)
			if c == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			if _, err := d.str(); err != nil {
				return err
			}
		case c == 't':
			if err := d.Literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := d.Literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := d.Literal("null"); err != nil {
				return err
			}
		case c == '-' || isDigit(c):
			if _, err := d.number(); err != nil {
				return err
			}
		default:
			return d.syntax("looking for beginning of value")
		}
		// A value ended: close the containers it ended, or move on to the
		// next element or member.
		for {
			if len(closers) == 0 {
				return nil
			}
			d.Space()
			closer := closers[len(closers)-1]
			if d.Lookahead() == closer {
				d.i++
				d.depth--
				closers = closers[:len(closers)-1]
				continue
			}
			if d.Lookahead() != ',' {
				return d.syntax("after object key:value pair or array element")
			}
			d.i++
			d.Space()
			if closer == '}' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			break
		}
	}
}

// ReadBody reads r to its end, appending to buf, and returns the extended
// buffer. A positive size (a Content-Length) no larger than limit sizes buf
// in one step when it lacks the room; otherwise buf grows as it fills.
func ReadBody(r io.Reader, buf []byte, size int64, limit int) ([]byte, error) {
	if size > int64(cap(buf)-len(buf)) && size <= int64(limit) {
		buf = slices.Grow(buf, int(size))
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, bytes.MinRead)
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
