package model

import (
	"encoding/binary"
	"math"
	"reflect"
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

// TestVisitBinaryRoundTripReplicated round-trips the embedded-document
// layout, which only the documents log writes now, through DecodeDocRecord,
// edge values included: negatives, NaN-free extremes, empty strings and
// keywords.
func TestVisitBinaryRoundTripReplicated(t *testing.T) {
	for _, v := range []Visit{sampleVisit(), {UserID: 1, Time: -5, Grade: math.MaxFloat64, POI: POI{ID: -7, Lat: -90, Lon: 180}}} {
		if got, err := DecodeDocRecord(EncodeVisitBinary(&v)); err != nil || !reflect.DeepEqual(got, v.POI) {
			t.Errorf("round trip (%v):\ngot  %+v\nwant %+v", err, got, v.POI)
		}
	}
}

func TestVisitBinaryRoundTripNormalized(t *testing.T) {
	v := sampleVisit()
	got, err := DecodeVisitBinary(EncodeVisitBinaryNormalized(&v))
	want := Visit{UserID: v.UserID, Time: v.Time, Grade: v.Grade, Network: v.Network, POI: POI{ID: v.POI.ID}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("normalized round trip (%v):\ngot  %+v\nwant %+v", err, got, want)
	}
}

// TestVisitBinaryRejectsCorruptPayloads cuts and pads a payload of each
// visit layout (a keyed one with a network code and one escaped) and of the
// documents log's record: every strict prefix, a
// trailing byte, an unknown version and an unknown tag fail cleanly, never
// panic or half-decode.
func TestVisitBinaryRejectsCorruptPayloads(t *testing.T) {
	v := sampleVisit()
	_, hash, err := InternPOI(&v.POI)
	if err != nil {
		t.Fatal(err)
	}
	visit := func(b []byte) error { _, err := DecodeVisitBinary(b); return err }
	record := func(b []byte) error { _, err := DecodeDocRecord(b); return err }
	escaped := v
	escaped.Network = "mastodon"
	for _, full := range [][]byte{EncodeVisitBinaryNormalized(&v), EncodeVisitBinaryKeyed(&v, hash), EncodeVisitBinaryKeyed(&escaped, hash), EncodeVisitBinary(&v)} {
		decode := visit
		if full[0] == VisitBinaryTagReplicated {
			decode = record
		}
		for i := 0; i < len(full); i++ {
			if decode(full[:i]) == nil {
				t.Fatalf("truncation of %x to %d bytes decoded without error", full, i)
			}
		}
		for _, bad := range [][]byte{append(append([]byte(nil), full...), 0xFF), append([]byte{full[0], 99}, full[2:]...), append([]byte{0x7F}, full[1:]...)} {
			if decode(bad) == nil {
				t.Errorf("%x decoded without error", bad)
			}
		}
	}
}

// TestVisitBinaryTagNeverMatchesJSON pins that a JSON visit document can
// never pass for a binary one: no tag is '{', and the binary decoders
// reject the JSON form and the empty payload.
func TestVisitBinaryTagNeverMatchesJSON(t *testing.T) {
	for _, tag := range []byte{VisitBinaryTagReplicated, VisitBinaryTagNormalized, VisitBinaryTagKeyed} {
		if tag == '{' {
			t.Errorf("binary tag %#x is the first byte of every JSON document", tag)
		}
	}
	v := sampleVisit()
	for _, b := range [][]byte{EncodeJSON(v), nil} {
		if _, err := DecodeVisitBinary(b); err == nil {
			t.Errorf("%q decoded as a binary visit", b)
		}
		if _, err := DecodeDocRecord(b); err == nil {
			t.Errorf("%q decoded as a document record", b)
		}
	}
}

// TestVisitBinaryMultiByteLengths round-trips payloads whose lengths,
// counts and varints take more than one byte, minimal and padded: each
// visit layout, and the documents log's record.
func TestVisitBinaryMultiByteLengths(t *testing.T) {
	for _, v := range multiByteVisits() {
		doc, hash, err := InternPOI(&v.POI)
		if err != nil {
			t.Fatal(err)
		}
		normalized := Visit{UserID: v.UserID, Time: v.Time, Grade: v.Grade, Network: v.Network, POI: POI{ID: v.POI.ID}}
		keyed := Visit{Grade: v.Grade, Network: v.Network, POI: *doc}
		for _, c := range []struct {
			payload []byte
			want    Visit
		}{
			{EncodeVisitBinaryNormalized(&v), normalized}, {encodePadded(&v, VisitBinaryTagNormalized, 0), normalized},
			{EncodeVisitBinaryKeyed(&v, hash), keyed}, {encodePadded(&v, VisitBinaryTagKeyed, hash), keyed},
			{EncodeVisitBinary(&v), Visit{POI: v.POI}}, {encodePadded(&v, VisitBinaryTagReplicated, 0), Visit{POI: v.POI}},
		} {
			got, err := DecodeVisitBinary(c.payload)
			if c.payload[0] == VisitBinaryTagReplicated {
				got.POI, err = DecodeDocRecord(c.payload)
			}
			if err != nil || !reflect.DeepEqual(got, c.want) {
				t.Errorf("round trip of %x (%v):\ngot  %+v\nwant %+v", c.payload, err, got, c.want)
			}
		}
	}
}

// TestVisitBinaryErrorTexts pins the text of each rejection: the field kind
// a truncated payload ran out at, the bad version or tag (the deleted 0x01,
// 0x03 and 0x04 visit layouts among them), an unknown network code, the
// trailing byte count; and the documents log's record's own.
func TestVisitBinaryErrorTexts(t *testing.T) {
	v := sampleVisit()
	_, hash, err := InternPOI(&v.POI)
	if err != nil {
		t.Fatal(err)
	}
	normalized := EncodeVisitBinaryNormalized(&v)
	// at builds a payload of tag from its field bytes.
	at := func(tag byte, fields ...[]byte) []byte {
		b := []byte{tag, visitBinaryVersion}
		for _, f := range fields {
			b = append(b, f...)
		}
		return b
	}
	zero, float := []byte{0}, make([]byte, 8)
	n, k, r := VisitBinaryTagNormalized, VisitBinaryTagKeyed, VisitBinaryTagReplicated
	parse := func(b []byte) error { var view VisitView; return view.Parse(b) }
	record := func(b []byte) error { _, err := DecodeDocRecord(b); return err }
	for _, c := range []struct {
		decode  func([]byte) error
		payload []byte
		want    string
	}{
		{parse, normalized[:1], "model: binary visit too short (1 bytes)"},
		{parse, []byte{0x7F, 9}, "model: binary visit version 9 not supported (tag 0x7f)"},
		{parse, []byte{0x7F, visitBinaryVersion, 0, 0}, "model: unknown binary visit tag 0x7f"},
		{parse, EncodeVisitBinary(&v), "model: unknown binary visit tag 0x01"},
		{parse, binary.LittleEndian.AppendUint64(append([]byte{0x03}, normalized[1:]...), hash), "model: unknown binary visit tag 0x03"},
		{parse, at(n), "model: truncated binary visit at varint"},
		{parse, at(n, zero, zero, []byte{1}), "model: truncated binary visit at float"},
		{parse, at(n, zero, zero, float, []byte{0x80}), "model: truncated binary visit at uvarint"},
		{parse, at(n, zero, zero, float, []byte{5, 'a'}), "model: truncated binary visit at string"},
		{parse, append(append([]byte(nil), normalized...), 1, 2), "model: 2 trailing bytes in binary visit"},
		{parse, encodeKeyedV4(&v, hash), "model: unknown binary visit tag 0x04"},
		{parse, at(k, zero), "model: truncated binary visit at document hash"},
		{parse, at(k, float), "model: truncated binary visit at float"},
		{parse, at(k, float, float), "model: truncated binary visit at POI id"},
		{parse, at(k, float, float, float), "model: truncated binary visit at network code"},
		{parse, at(k, float, float, float, []byte{byte(len(networkCodes))}), "model: unknown network code in binary visit"},
		{parse, at(k, float, float, float, []byte{0xfe}), "model: unknown network code in binary visit"},
		{parse, at(k, float, float, float, []byte{0xff}), "model: truncated binary visit at uvarint"},
		{parse, at(k, float, float, float, []byte{0xff, 3, 'a'}), "model: truncated binary visit at string"},
		{parse, at(k, float, float, float, []byte{1, 9}), "model: 1 trailing bytes in binary visit"},
		{parse, at(k, float, float, float, []byte{0xff, 1, 'a', 9, 9}), "model: 2 trailing bytes in binary visit"},
		{record, []byte{r}, "model: document record too short (1 bytes)"},
		{record, normalized, "model: document record tag 0x02 version 1 not supported"},
		{record, at(r, zero, zero, float, zero, zero, zero, float, float, []byte{9}), "model: truncated binary visit at keyword count"},
		{record, at(r, zero, zero, float, zero, zero, zero, float, float, zero, float, float, zero), "model: 1 trailing bytes in binary visit"},
	} {
		if err := c.decode(c.payload); err == nil || err.Error() != c.want {
			t.Errorf("decoding %x = %v, want %q", c.payload, err, c.want)
		}
	}
}

// BenchmarkVisitViewParse measures the parser on each layout's payload of
// the benchmark's shape; the keyed one is what the replicated schema
// writes.
func BenchmarkVisitViewParse(b *testing.B) {
	v := sampleVisit()
	_, hash, err := InternPOI(&v.POI)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		payload []byte
	}{{"normalized", EncodeVisitBinaryNormalized(&v)}, {"keyed", EncodeVisitBinaryKeyed(&v, hash)}} {
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
