package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// referenceDecode is the eager decoder the codec shipped with before the
// view existed, kept as the oracle that pins both parsers' validation: it
// shares no code with VisitView.Parse or DecodeDocRecord. It reads the two
// visit layouts and the documents log's 0x01 record; a keyed payload's
// document is the shared table's (looked up after the layout is checked).
func referenceDecode(b []byte) (Visit, error) {
	errCorrupt := errors.New("corrupt")
	if len(b) < 2 || b[1] != visitBinaryVersion {
		return Visit{}, errCorrupt
	}
	tag, b := b[0], b[2:]
	ok := true
	uvarint := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			ok, b = false, nil
			return 0
		}
		b = b[n:]
		return v
	}
	varint := func() int64 { u := uvarint(); return int64(u>>1) ^ -int64(u&1) }
	u64 := func() uint64 {
		if len(b) < 8 {
			ok, b = false, nil
			return 0
		}
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v
	}
	float := func() float64 { return math.Float64frombits(u64()) }
	str := func() string {
		n := uvarint()
		if !ok || n > uint64(len(b)) {
			ok, b = false, nil
			return ""
		}
		s := string(b[:n])
		b = b[n:]
		return s
	}
	var v Visit
	switch tag {
	case VisitBinaryTagKeyed:
		hash := u64()
		v.Grade = float()
		v.POI.ID = varint()
		v.Network = str()
		if !ok || len(b) != 0 {
			return Visit{}, errCorrupt
		}
		doc := lookupDoc(v.POI.ID, hash)
		if doc == nil {
			return Visit{}, errCorrupt
		}
		v.POI = *doc
		return v, nil
	case VisitBinaryTagReplicated, VisitBinaryTagNormalized:
		v.UserID = varint()
		v.Time = varint()
		v.Grade = float()
		v.Network = str()
		v.POI.ID = varint()
	default:
		return Visit{}, errCorrupt
	}
	if tag == VisitBinaryTagReplicated {
		v.POI.Name = str()
		v.POI.Lat = float()
		v.POI.Lon = float()
		if n := uvarint(); n > 0 {
			if n > uint64(len(b)) {
				ok = false
			} else {
				v.POI.Keywords = make([]string, n)
				for i := range v.POI.Keywords {
					v.POI.Keywords[i] = str()
				}
			}
		}
		v.POI.Hotness = float()
		v.POI.Interest = float()
	}
	if !ok || len(b) != 0 {
		return Visit{}, errCorrupt
	}
	return v, nil
}

// appendPaddedUvarint appends x one byte longer than its minimal uvarint:
// a non-minimal encoding binary.Uvarint accepts.
func appendPaddedUvarint(b []byte, x uint64) []byte {
	b = binary.AppendUvarint(b, x)
	b[len(b)-1] |= 0x80
	return append(b, 0)
}

// encodePadded is the encoder of tag (0x01, 0x02 or 0x04, with hash) with
// every length, count and varint encoded one byte longer than needed.
func encodePadded(v *Visit, tag byte, hash uint64) []byte {
	varint := func(b []byte, x int64) []byte { return appendPaddedUvarint(b, uint64(x<<1)^uint64(x>>63)) }
	str := func(b []byte, s string) []byte { return append(appendPaddedUvarint(b, uint64(len(s))), s...) }
	b := []byte{tag, visitBinaryVersion}
	if tag == VisitBinaryTagKeyed {
		b = appendFloat(binary.LittleEndian.AppendUint64(b, hash), v.Grade)
		return str(varint(b, v.POI.ID), v.Network)
	}
	b = str(appendFloat(varint(varint(b, v.UserID), v.Time), v.Grade), v.Network)
	if b = varint(b, v.POI.ID); tag == VisitBinaryTagNormalized {
		return b
	}
	b = appendFloat(appendFloat(str(b, v.POI.Name), v.POI.Lat), v.POI.Lon)
	b = appendPaddedUvarint(b, uint64(len(v.POI.Keywords)))
	for _, k := range v.POI.Keywords {
		b = str(b, k)
	}
	return appendFloat(appendFloat(b, v.POI.Hotness), v.POI.Interest)
}

// multiByteVisits are visits whose payloads take the slow branch of every
// length Parse reads: a name and a keyword of 128 bytes or more, at least
// 128 keywords, and ids and times too large for one varint byte.
func multiByteVisits() []Visit {
	long := sampleVisit()
	long.POI.Name = strings.Repeat("Acropolis ", 20)
	long.POI.Keywords = append([]string{strings.Repeat("k", 200)}, long.POI.Keywords...)
	many := sampleVisit()
	many.POI.Keywords = nil
	for i := 0; i < 130; i++ {
		many.POI.Keywords = append(many.POI.Keywords, fmt.Sprintf("kw%d", i))
	}
	return []Visit{long, many}
}

// sameFloat compares bit patterns, so a NaN equals itself.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameVisit compares two decoded visits, their floats by bits (NaNs defeat
// DeepEqual) and the rest structurally.
func sameVisit(a, b Visit) bool {
	for _, p := range [][2]*float64{
		{&a.Grade, &b.Grade}, {&a.POI.Lat, &b.POI.Lat}, {&a.POI.Lon, &b.POI.Lon},
		{&a.POI.Hotness, &b.POI.Hotness}, {&a.POI.Interest, &b.POI.Interest},
	} {
		if !sameFloat(*p[0], *p[1]) {
			return false
		}
		*p[0], *p[1] = 0, 0
	}
	return reflect.DeepEqual(a, b)
}

// FuzzVisitView is the differential test of the one parser behind both read
// paths: on arbitrary bytes VisitView.Parse, DecodeVisitBinary and the
// reference decoder accept and reject together and never panic — a 0x01
// record, which the reference reads, is no visit — and on accept the view's
// scalars and keyword membership equal the decoded visit's, and the
// materialized visit equals the reference's.
func FuzzVisitView(f *testing.F) {
	v := sampleVisit()
	f.Add([]byte{0x7F, visitBinaryVersion, 0, 0}, "x")
	f.Add([]byte{VisitBinaryTagKeyed, 9, 0}, "x")
	f.Add([]byte{VisitBinaryTagKeyed, visitBinaryVersion}, "x")
	f.Add([]byte{VisitBinaryTagNormalized, visitBinaryVersion}, "x")
	f.Add([]byte{}, "")
	f.Add(EncodeJSON(v), "museum")
	noKeywords := v
	noKeywords.POI.Keywords = nil
	// Per visit, with and without keywords and with multi-byte lengths:
	// keyed payloads naming a document the table holds, a truncation inside
	// the last field and inside the fixed ones, a trailing byte, a hash the
	// table does not hold, padded varints; normalized payloads whole, cut,
	// with a trailing byte and padded; and rows of the deleted 0x01 and 0x03
	// layouts, which must fail.
	for _, m := range append(multiByteVisits(), v, noKeywords) {
		_, hash, err := InternPOI(&m.POI)
		if err != nil {
			f.Fatal(err)
		}
		kw := ""
		if len(m.POI.Keywords) > 0 {
			kw = m.POI.Keywords[len(m.POI.Keywords)-1]
		}
		keyed := EncodeVisitBinaryKeyed(&m, hash)
		normalized := EncodeVisitBinaryNormalized(&m)
		padded := encodePadded(&m, VisitBinaryTagKeyed, hash)
		for _, b := range [][]byte{
			keyed, keyed[:len(keyed)-3], keyed[:12], append(append([]byte(nil), keyed...), 0),
			EncodeVisitBinaryKeyed(&m, hash+1), padded, padded[:len(padded)-1],
			normalized, normalized[:len(normalized)-3], append(append([]byte(nil), normalized...), 0),
			encodePadded(&m, VisitBinaryTagNormalized, 0), EncodeVisitBinary(&m),
			binary.LittleEndian.AppendUint64(append([]byte{0x03}, normalized[1:]...), hash),
		} {
			f.Add(b, kw)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte, kw string) {
		var view VisitView
		viewErr := view.Parse(b)
		got, decErr := DecodeVisitBinary(b)
		want, refErr := referenceDecode(b)
		if refErr == nil && b[0] == VisitBinaryTagReplicated {
			refErr = errors.New("a documents-log record")
		}
		if (viewErr == nil) != (refErr == nil) || (decErr == nil) != (refErr == nil) {
			t.Fatalf("accept/reject diverged on %x: view %v, decode %v, reference %v", b, viewErr, decErr, refErr)
		}
		if refErr != nil {
			return
		}
		lat, lon := view.Location()
		if view.UserID != want.UserID || view.Time != want.Time || view.POIID != want.POI.ID ||
			!sameFloat(view.Grade, want.Grade) || !sameFloat(lat, want.POI.Lat) || !sameFloat(lon, want.POI.Lon) {
			t.Fatalf("view scalars diverged on %x:\nview %+v\nwant %+v", b, view, want)
		}
		// Probe the fuzzed keyword and the list's two ends: a fixed number of
		// linear walks, however long a list the table holds.
		member := map[string]bool{}
		for _, k := range want.POI.Keywords {
			member[k] = true
		}
		probes := []string{kw}
		if n := len(want.POI.Keywords); n > 0 {
			probes = append(probes, want.POI.Keywords[0], want.POI.Keywords[n-1])
		}
		for _, k := range probes {
			if view.HasKeyword(k) != member[k] {
				t.Fatalf("HasKeyword(%q) = %v on %x, keywords %q", k, !member[k], b, want.POI.Keywords)
			}
		}
		if !sameVisit(got, want) {
			t.Fatalf("decoded visit diverged on %x:\ngot  %+v\nwant %+v", b, got, want)
		}
	})
}

// FuzzDocRecord is the differential test of the documents log's decoder: on
// arbitrary bytes DecodeDocRecord and the reference accept and reject
// together and never panic — a visit row is no record — and on accept they
// decode one document.
func FuzzDocRecord(f *testing.F) {
	v := sampleVisit()
	noKeywords := v
	noKeywords.POI.Keywords = nil
	for _, m := range append(multiByteVisits(), v, noKeywords) {
		full := EncodeVisitBinary(&m)
		for _, b := range [][]byte{full, full[:len(full)/2], full[:len(full)-20], append(append([]byte(nil), full...), 0), encodePadded(&m, VisitBinaryTagReplicated, 0)} {
			f.Add(b)
		}
	}
	f.Add([]byte{VisitBinaryTagReplicated, visitBinaryVersion})
	f.Add([]byte{VisitBinaryTagReplicated, 9, 0})
	f.Add([]byte{0x7F, visitBinaryVersion, 0, 0})
	f.Add(EncodeJSON(v))
	f.Add(EncodeVisitBinaryNormalized(&v))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := DecodeDocRecord(b)
		want, refErr := referenceDecode(b)
		if refErr == nil && b[0] != VisitBinaryTagReplicated {
			refErr = errors.New("a visit row")
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("accept/reject diverged on %x: decode %v, reference %v", b, err, refErr)
		}
		if err == nil && !sameVisit(Visit{POI: got}, Visit{POI: want.POI}) {
			t.Fatalf("decoded document diverged on %x:\ngot  %+v\nwant %+v", b, got, want.POI)
		}
	})
}
