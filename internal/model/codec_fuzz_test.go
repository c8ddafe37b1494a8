package model

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
)

// referenceDecodeVisitBinary is the eager decoder the codec shipped with
// before the view existed, kept as the oracle that pins the walker's
// validation: it shares no code with VisitView.Parse.
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
	float := func() float64 {
		if len(b) < 8 {
			ok, b = false, nil
			return 0
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		return v
	}
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
	v.UserID = varint()
	v.Time = varint()
	v.Grade = float()
	v.Network = str()
	v.POI.ID = varint()
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
	default:
		return Visit{}, errCorrupt
	}
	if !ok || len(b) != 0 {
		return Visit{}, errCorrupt
	}
	return v, nil
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
		if view.UserID != want.UserID || view.Time != want.Time || view.POIID != want.POI.ID ||
			!sameFloat(view.Grade, want.Grade) || !sameFloat(view.Lat, want.POI.Lat) || !sameFloat(view.Lon, want.POI.Lon) {
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
