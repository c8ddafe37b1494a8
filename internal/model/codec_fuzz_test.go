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

// referenceDecodeVisitBinary is the eager decoder the codec shipped with
// before the view existed, kept as the oracle that pins the walker's
// validation: it shares no code with VisitView.Parse. It has learned the
// keyed layout since. A shared-document payload's document is the shared
// table's (looked up after the layout is checked).
func referenceDecodeVisitBinary(b []byte) (Visit, error) {
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
	varint := func() int64 {
		v, n := binary.Varint(b)
		if n <= 0 {
			ok, b = false, nil
			return 0
		}
		b = b[n:]
		return v
	}
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
	var hash uint64
	if tag == VisitBinaryTagKeyed {
		hash = u64()
		v.Grade = float()
		v.POI.ID = varint()
		v.Network = str()
	} else {
		v.UserID = varint()
		v.Time = varint()
		v.Grade = float()
		v.Network = str()
		v.POI.ID = varint()
	}
	switch tag {
	case VisitBinaryTagReplicated:
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
	case VisitBinaryTagNormalized:
	case VisitBinaryTagShared, VisitBinaryTagKeyed:
		if tag == VisitBinaryTagShared {
			hash = u64()
		}
		if !ok || len(b) != 0 {
			return Visit{}, errCorrupt
		}
		doc := sharedDocs.lookup(v.POI.ID, hash)
		if doc == nil {
			return Visit{}, errCorrupt
		}
		v.POI = *doc
		return v, nil
	default:
		return Visit{}, errCorrupt
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

// encodePaddedVisit is EncodeVisitBinary with every length, count and
// varint encoded one byte longer than needed.
func encodePaddedVisit(v *Visit) []byte {
	varint := func(b []byte, x int64) []byte {
		ux := uint64(x) << 1
		if x < 0 {
			ux = ^ux
		}
		return appendPaddedUvarint(b, ux)
	}
	str := func(b []byte, s string) []byte { return append(appendPaddedUvarint(b, uint64(len(s))), s...) }
	b := []byte{VisitBinaryTagReplicated, visitBinaryVersion}
	b = varint(b, v.UserID)
	b = varint(b, v.Time)
	b = appendFloat(b, v.Grade)
	b = str(b, v.Network)
	b = varint(b, v.POI.ID)
	b = str(b, v.POI.Name)
	b = appendFloat(b, v.POI.Lat)
	b = appendFloat(b, v.POI.Lon)
	b = appendPaddedUvarint(b, uint64(len(v.POI.Keywords)))
	for _, k := range v.POI.Keywords {
		b = str(b, k)
	}
	b = appendFloat(b, v.POI.Hotness)
	return appendFloat(b, v.POI.Interest)
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

// FuzzVisitView is the differential test of the one parser behind both read
// paths: on arbitrary bytes VisitView.Parse, DecodeVisitBinary and the
// reference decoder accept and reject together and never panic; on accept
// the view's scalars and keyword membership equal the decoded visit's, and
// the materialized visit equals the reference's.
func FuzzVisitView(f *testing.F) {
	v := sampleVisit()
	full := EncodeVisitBinary(&v)
	f.Add(full, "museum")
	f.Add(EncodeVisitBinaryNormalized(&v), "")
	f.Add(full[:len(full)/2], "history")
	f.Add(append(append([]byte(nil), full...), 0), "athens")
	f.Add([]byte{VisitBinaryTagReplicated, visitBinaryVersion}, "x")
	f.Add([]byte{VisitBinaryTagReplicated, 9, 0}, "x")
	f.Add([]byte{0x7F, visitBinaryVersion, 0, 0}, "x")
	f.Add(EncodeJSON(v), "museum")
	noKeywords := v
	noKeywords.POI.Keywords = nil
	f.Add(EncodeVisitBinary(&noKeywords), "")
	f.Add(encodePaddedVisit(&v), "history")
	f.Add(encodePaddedVisit(&noKeywords), "")
	for _, m := range multiByteVisits() {
		full := EncodeVisitBinary(&m)
		f.Add(full, m.POI.Keywords[len(m.POI.Keywords)-1])
		f.Add(full[:len(full)-20], m.POI.Keywords[0])
		f.Add(encodePaddedVisit(&m), "kw7")
	}
	// Shared-document payloads of both layouts: documents the table holds
	// (with and without keywords, multi-byte lengths), a truncation inside
	// the last field and inside the fixed ones, a trailing byte, and a hash
	// the table does not hold.
	for _, m := range append(multiByteVisits(), v, noKeywords) {
		_, hash, err := InternPOI(&m.POI)
		if err != nil {
			f.Fatal(err)
		}
		kw := ""
		if len(m.POI.Keywords) > 0 {
			kw = m.POI.Keywords[len(m.POI.Keywords)-1]
		}
		for _, encode := range []func(*Visit, uint64) []byte{encodeVisitBinaryShared, EncodeVisitBinaryKeyed} {
			shared := encode(&m, hash)
			f.Add(shared, kw)
			f.Add(shared[:len(shared)-3], kw)
			f.Add(shared[:12], kw)
			f.Add(append(append([]byte(nil), shared...), 0), kw)
			f.Add(encode(&m, hash+1), kw)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte, kw string) {
		var view VisitView
		viewErr := view.Parse(b)
		got, decErr := DecodeVisitBinary(b)
		want, refErr := referenceDecodeVisitBinary(b)
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
		// linear walks, however long a list the fuzzer grows.
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
		// NaNs defeat DeepEqual; compare the floats by bits and the rest
		// structurally.
		for _, p := range [][2]*float64{
			{&got.Grade, &want.Grade}, {&got.POI.Lat, &want.POI.Lat}, {&got.POI.Lon, &want.POI.Lon},
			{&got.POI.Hotness, &want.POI.Hotness}, {&got.POI.Interest, &want.POI.Interest},
		} {
			if !sameFloat(*p[0], *p[1]) {
				t.Fatalf("decoded floats diverged on %x:\ngot  %+v\nwant %+v", b, got, want)
			}
			*p[0], *p[1] = 0, 0
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded visit diverged on %x:\ngot  %+v\nwant %+v", b, got, want)
		}
	})
}
