package model

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func sampleVisit() Visit {
	return Visit{
		UserID:  4211,
		Time:    1356912000123,
		Grade:   4.5,
		Network: "foursquare",
		POI: POI{
			ID:       991,
			Name:     "Acropolis Museum",
			Lat:      37.9684,
			Lon:      23.7285,
			Keywords: []string{"museum", "history", "athens"},
			Hotness:  0.83,
			Interest: 4.1,
		},
	}
}

func TestVisitBinaryRoundTripReplicated(t *testing.T) {
	v := sampleVisit()
	b := EncodeVisitBinary(&v)
	if b[0] != VisitBinaryTagReplicated {
		t.Fatalf("encoded payload starts with %#x, want the replicated tag", b[0])
	}
	got, err := DecodeVisitBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, v)
	}
	// Edge values: negatives, NaN-free extremes, empty strings and keywords.
	edge := Visit{UserID: 1, Time: -5, Grade: math.MaxFloat64, POI: POI{ID: -7, Lat: -90, Lon: 180}}
	got, err = DecodeVisitBinary(EncodeVisitBinary(&edge))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, edge) {
		t.Errorf("edge round trip mismatch:\ngot  %+v\nwant %+v", got, edge)
	}
}

func TestVisitBinaryRoundTripNormalized(t *testing.T) {
	v := sampleVisit()
	b := EncodeVisitBinaryNormalized(&v)
	if b[0] != VisitBinaryTagNormalized {
		t.Fatalf("encoded payload starts with %#x, want the normalized tag", b[0])
	}
	got, err := DecodeVisitBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	want := Visit{UserID: v.UserID, Time: v.Time, Grade: v.Grade, Network: v.Network, POI: POI{ID: v.POI.ID}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalized round trip:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestVisitBinaryRejectsCorruptPayloads(t *testing.T) {
	v := sampleVisit()
	full := EncodeVisitBinary(&v)
	// Every strict prefix must fail cleanly, never panic or half-decode.
	for i := 0; i < len(full); i++ {
		if _, err := DecodeVisitBinary(full[:i]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", i, len(full))
		}
	}
	// Trailing garbage is rejected too.
	if _, err := DecodeVisitBinary(append(append([]byte(nil), full...), 0xFF)); err == nil {
		t.Error("trailing bytes decoded without error")
	}
	// Unknown version byte.
	bad := append([]byte(nil), full...)
	bad[1] = 99
	if _, err := DecodeVisitBinary(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("unknown version: err = %v, want version error", err)
	}
	// Unknown tag byte.
	bad = append([]byte(nil), full...)
	bad[0] = 0x7F
	if _, err := DecodeVisitBinary(bad); err == nil {
		t.Error("unknown tag decoded without error")
	}
	// Absurd keyword count must not allocate or misread.
	kw := []byte{VisitBinaryTagReplicated, visitBinaryVersion}
	if _, err := DecodeVisitBinary(kw); err == nil {
		t.Error("header-only payload decoded without error")
	}
}

// TestVisitBinaryTagNeverMatchesJSON pins that a JSON visit document can
// never pass for a binary one: no tag is '{', and the binary decoder
// rejects the JSON form and the empty payload.
func TestVisitBinaryTagNeverMatchesJSON(t *testing.T) {
	for _, tag := range []byte{VisitBinaryTagReplicated, VisitBinaryTagNormalized} {
		if tag == '{' {
			t.Errorf("binary tag %#x is the first byte of every JSON document", tag)
		}
	}
	v := sampleVisit()
	if _, err := DecodeVisitBinary(EncodeJSON(v)); err == nil {
		t.Error("JSON payload decoded as binary")
	}
	if _, err := DecodeVisitBinary(nil); err == nil {
		t.Error("empty payload decoded as binary")
	}
}

// TestVisitBinaryMultiByteLengths round-trips payloads whose lengths,
// counts and varints take more than one byte, minimal and padded.
func TestVisitBinaryMultiByteLengths(t *testing.T) {
	for _, v := range multiByteVisits() {
		for _, b := range [][]byte{EncodeVisitBinary(&v), encodePaddedVisit(&v)} {
			got, err := DecodeVisitBinary(b)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, v) {
				t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, v)
			}
		}
	}
}

// TestVisitBinaryErrorTexts pins the text of each rejection: the field kind
// a truncated payload ran out at, the bad version or tag, the trailing
// byte count.
func TestVisitBinaryErrorTexts(t *testing.T) {
	v := sampleVisit()
	full := EncodeVisitBinary(&v)
	// at builds a replicated-tag payload from its field bytes.
	at := func(fields ...[]byte) []byte {
		b := []byte{VisitBinaryTagReplicated, visitBinaryVersion}
		for _, f := range fields {
			b = append(b, f...)
		}
		return b
	}
	zero, float := []byte{0}, make([]byte, 8)
	cases := []struct {
		payload []byte
		want    string
	}{
		{full[:1], "model: binary visit too short (1 bytes)"},
		{[]byte{0x7F, 9}, "model: binary visit version 9 not supported (tag 0x7f)"},
		{[]byte{0x7F, visitBinaryVersion, 0, 0}, "model: unknown binary visit tag 0x7f"},
		{at(), "model: truncated binary visit at varint"},
		{at(zero, zero, []byte{1}), "model: truncated binary visit at float"},
		{at(zero, zero, float, []byte{0x80}), "model: truncated binary visit at uvarint"},
		{at(zero, zero, float, []byte{5, 'a'}), "model: truncated binary visit at string"},
		{at(zero, zero, float, zero, zero, zero, float, float, []byte{9}), "model: truncated binary visit at keyword count"},
		{append(append([]byte(nil), full...), 1, 2), "model: 2 trailing bytes in binary visit"},
	}
	for _, c := range cases {
		var view VisitView
		if err := view.Parse(c.payload); err == nil || err.Error() != c.want {
			t.Errorf("Parse(%x) = %v, want %q", c.payload, err, c.want)
		}
	}
}

// BenchmarkVisitViewParse measures the parser on a replicated payload of
// the benchmark's shape (a short name, three keywords) and on one whose
// lengths take the multi-byte branch.
func BenchmarkVisitViewParse(b *testing.B) {
	v := sampleVisit()
	long := multiByteVisits()[1]
	for _, c := range []struct {
		name    string
		payload []byte
	}{{"replicated", EncodeVisitBinary(&v)}, {"normalized", EncodeVisitBinaryNormalized(&v)}, {"multibyte", EncodeVisitBinary(&long)}} {
		b.Run(c.name, func(b *testing.B) {
			var view VisitView
			b.ReportAllocs()
			b.SetBytes(int64(len(c.payload)))
			for i := 0; i < b.N; i++ {
				if err := view.Parse(c.payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
