package jsonwire

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// validate runs the scan a decoder makes over a document it does not know
// the shape of: leading whitespace, one value of any shape, nothing but
// whitespace after it.
func validate(data []byte) error {
	d := NewDecoder(data)
	d.Space()
	if err := d.Skip(); err != nil {
		return err
	}
	return d.End()
}

// FuzzSkipMatchesValid holds Space, Skip and End to json.Valid: together
// they must accept exactly the documents encoding/json accepts, the nesting
// limit included.
func FuzzSkipMatchesValid(f *testing.F) {
	for _, doc := range []string{
		``, ` `, `null`, `nul`, `true`, `tru`, `false`, ` 0 `, `-`, `-0`, `01`,
		`1.`, `1.5e+3`, `1e`, `-1E-07`, `""`, `"é\ud800"`, `"\x"`,
		"\"\xff\xfe\"", "\"\x01\"", "\" \"", `"\/\b\f\n\r\t"`,
		`[]`, `[1,]`, `[1 2]`, `[[[]]]`, `{}`, `{"a" 1}`, `{"a":}`, `{1:2}`,
		`{"a":[1,{"b":null}],"c":"d"}`, `{"a":1,}`, "\t\n\r{}\r\n\t", "\v1",
		`1 2`, `{}}`, `[`, `"`,
		strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth),
		strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1),
		strings.Repeat(`{"a":`, maxDepth+1) + "1" + strings.Repeat("}", maxDepth+1),
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		err := validate(data)
		if want := json.Valid(data); (err == nil) != want {
			t.Fatalf("Space+Skip+End on %q: err %v, json.Valid %v", data, err, want)
		}
	})
}

// FuzzWriterMatchesMarshal holds Writer.String and Writer.Float to
// json.Marshal: the same bytes for every string and every finite float,
// and Err set exactly when json.Marshal refuses the float (NaN and ±Inf).
func FuzzWriterMatchesMarshal(f *testing.F) {
	for _, c := range []struct {
		s string
		f float64
	}{
		{"", 0},
		{"plain", 1},
		{"Fish & Chips <Café>", -0.5},
		{"\x00\x1f\"\\\b\f\n\r\t\x7f", 1e21},
		{"\xff\xe2\x80\xa8 \xed\xa0\x80", 1e-7},
		{"\U0001F600", 123456789.123},
		{"a", math.Copysign(0, -1)},
		{"b", math.NaN()},
		{"c", math.Inf(1)},
		{"d", math.Inf(-1)},
		{"e", math.MaxFloat64},
		{"f", math.SmallestNonzeroFloat64},
	} {
		f.Add(c.s, c.f)
	}
	f.Fuzz(func(t *testing.T, s string, v float64) {
		var w Writer
		w.String(s)
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("json.Marshal(%q): %v", s, err)
		}
		if !bytes.Equal(w.B, want) {
			t.Fatalf("String(%q) wrote %s, json.Marshal %s", s, w.B, want)
		}
		if w.Err != nil {
			t.Fatalf("String(%q) set Err %v", s, w.Err)
		}

		w = Writer{}
		w.Float(v)
		want, err = json.Marshal(v)
		if (w.Err == nil) != (err == nil) {
			t.Fatalf("Float(%v): Err %v, json.Marshal error %v", v, w.Err, err)
		}
		if err == nil && !bytes.Equal(w.B, want) {
			t.Fatalf("Float(%v) wrote %s, json.Marshal %s", v, w.B, want)
		}
	})
}
