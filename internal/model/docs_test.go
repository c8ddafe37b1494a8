package model

import (
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestVisitBinaryGoldenBytes pins the stored formats. The 0x02 payload is
// what the normalized schema has written since before shared documents
// existed, and the 0x04 payload the one the replicated schema writes; logs
// hold both, so they must keep parsing to the same visit, and the 0x04
// payload carries the content hash, which rows store and so can never
// change. The 0x01 payload is the documents log's record of the same
// document: the log's encoder must keep writing these bytes, and its
// decoder must keep reading them back.
func TestVisitBinaryGoldenBytes(t *testing.T) {
	v := sampleVisit()
	doc, hash, err := InternPOI(&v.POI)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		payload string
		encoded []byte
		want    Visit
	}{
		{"normalized 0x02",
			"0201e641f6f18fe4fd4e00000000000012400a666f7572737175617265be0f",
			EncodeVisitBinaryNormalized(&v), Visit{UserID: v.UserID, Time: v.Time, Grade: v.Grade, Network: v.Network, POI: POI{ID: v.POI.ID}}},
		{"keyed 0x04",
			"040157a57e215ba536760000000000001240be0f0a666f7572737175617265",
			EncodeVisitBinaryKeyed(&v, hash), Visit{Grade: v.Grade, Network: v.Network, POI: v.POI}},
		{"replicated 0x01",
			"0101e641f6f18fe4fd4e00000000000012400a666f7572737175617265be0f104163726f706f6c6973204d757365756d24b9fc87f4fb4240d122dbf97eba374003066d757365756d07686973746f727906617468656e738fc2f5285c8fea3f6666666666661040",
			EncodeVisitBinary(&v), Visit{POI: v.POI}},
	} {
		t.Run(c.name, func(t *testing.T) {
			raw, err := hex.DecodeString(c.payload)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(c.encoded); got != c.payload {
				t.Errorf("the encoder writes\n%s\nwant\n%s", got, c.payload)
			}
			got, err := DecodeVisitBinary(raw)
			if raw[0] == VisitBinaryTagReplicated {
				got.POI, err = DecodeDocRecord(raw)
			}
			if err != nil || !reflect.DeepEqual(got, c.want) {
				t.Fatalf("decoded (%v)\n%+v\nwant\n%+v", err, got, c.want)
			}
			if raw[0] == VisitBinaryTagReplicated {
				return
			}
			var view VisitView
			if err := view.Parse(raw); err != nil {
				t.Fatal(err)
			}
			lat, lon := view.Location()
			if view.UserID != c.want.UserID || view.Time != c.want.Time || view.POIID != c.want.POI.ID || lat != c.want.POI.Lat || lon != c.want.POI.Lon || view.POI().Hotness != c.want.POI.Hotness {
				t.Errorf("view %+v disagrees with %+v", view, c.want)
			}
		})
	}
	if got := hashPOI(doc); got != 0x7636a55b217ea557 {
		t.Errorf("hashPOI(sample) = %016x; rows store the hash, so it must never change", got)
	}
}

// TestHashPOIIsFNV1a checks hashPOI against hash/fnv over the canonical
// bytes its comment describes, built without the hash's own helpers.
func TestHashPOIIsFNV1a(t *testing.T) {
	for _, m := range append(multiByteVisits(), sampleVisit(), Visit{POI: POI{ID: -3, Lat: math.Copysign(0, -1)}}) {
		p := m.POI
		var b []byte
		u64 := func(x uint64) { b = binary.LittleEndian.AppendUint64(b, x) }
		str := func(s string) { u64(uint64(len(s))); b = append(b, s...) }
		u64(uint64(p.ID))
		str(p.Name)
		u64(math.Float64bits(p.Lat))
		u64(math.Float64bits(p.Lon))
		u64(uint64(len(p.Keywords)))
		for _, k := range p.Keywords {
			str(k)
		}
		u64(math.Float64bits(p.Hotness))
		u64(math.Float64bits(p.Interest))
		h := fnv.New64a()
		h.Write(b)
		if got, want := hashPOI(&p), h.Sum64(); got != want {
			t.Errorf("hashPOI(%d) = %016x, FNV-1a of its bytes is %016x", p.ID, got, want)
		}
	}
}

// lookupDoc returns the shared document (id, hash) names, or nil.
func lookupDoc(id int64, hash uint64) *POI {
	if v := sharedDocs.lookupVersion(id, hash); v != nil {
		return v.doc
	}
	return nil
}

// TestInternPOIShares checks what interning hands out: one copy per
// document, immune to the caller's later writes, keyword-less documents
// with nil keywords (as the embedded codec decodes them), every version of a
// POI kept and found, and ids outside the dense range alike.
func TestInternPOIShares(t *testing.T) {
	kw := []string{"cafe", "view"}
	p := POI{ID: 7001, Name: "plaka", Lat: 37.9, Lon: 23.7, Keywords: kw, Hotness: 0.5}
	a, ha, err := InternPOI(&p)
	if err != nil {
		t.Fatal(err)
	}
	kw[0] = "bar"
	if a.Keywords[0] != "cafe" {
		t.Fatal("the shared document aliases the caller's keyword slice")
	}
	p.Keywords = []string{"cafe", "view"}
	again, h2, err := InternPOI(&p)
	if err != nil || again != a || h2 != ha {
		t.Fatalf("an equal document interned to %p/%016x/%v, want %p/%016x", again, h2, err, a, ha)
	}
	hot := p
	hot.Hotness = 0.9
	b, hb, err := InternPOI(&hot)
	if err != nil || b == a || hb == ha {
		t.Fatalf("a refreshed document interned to %p/%016x/%v, want a new version", b, hb, err)
	}
	if back, _, _ := InternPOI(&p); back != a {
		t.Error("re-interning the first version made a second copy of it")
	}
	for _, c := range []struct {
		hash uint64
		want *POI
	}{{ha, a}, {hb, b}, {ha ^ 1, nil}} {
		if got := lookupDoc(p.ID, c.hash); got != c.want {
			t.Errorf("lookup(%d, %016x) = %p, want %p", p.ID, c.hash, got, c.want)
		}
	}
	empty, _, err := InternPOI(&POI{ID: 7002, Keywords: []string{}})
	if err != nil || empty.Keywords != nil {
		t.Errorf("a keyword-less document keeps keywords %#v (%v), want nil", empty.Keywords, err)
	}
	for _, id := range []int64{-5, maxDenseID, 1 << 40} {
		d, h, err := InternPOI(&POI{ID: id, Name: "far"})
		if err != nil || lookupDoc(id, h) != d {
			t.Errorf("id %d: interned %p (%v), lookup does not find it", id, d, err)
		}
	}
}

// TestInternPOICollision makes every document hash alike: a second document
// of one id under an existing (id, hash) must fail, not alias the first,
// while the first and other ids' documents still intern.
func TestInternPOICollision(t *testing.T) {
	tbl := &docTable{hash: func(*POI) uint64 { return 42 }}
	first := POI{ID: 1, Name: "first"}
	second := POI{ID: 1, Name: "second"}
	d, _, err := tbl.intern(&first)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := tbl.intern(&second); err == nil || !strings.Contains(err.Error(), "already names a different document") {
		t.Fatalf("a colliding document interned to %p (%v), want an error", got, err)
	}
	if got, _, err := tbl.intern(&first); err != nil || got != d {
		t.Errorf("the first document re-interned to %p (%v), want %p", got, err, d)
	}
	if _, _, err := tbl.intern(&POI{ID: 2, Name: "second"}); err != nil {
		t.Errorf("another id's document under the same hash: %v", err)
	}
}

// TestSharedDocsAllocs pins the two hot paths at zero allocations: interning
// the document a POI was interned with last (every visit a write stores),
// and reading a keyed payload (every row a query scans).
func TestSharedDocsAllocs(t *testing.T) {
	v := sampleVisit()
	_, hash, err := InternPOI(&v.POI)
	if err != nil {
		t.Fatal(err)
	}
	// A distinct copy: the hit compares values, not pointers.
	p := v.POI
	p.Keywords = append([]string(nil), v.POI.Keywords...)
	if allocs := testing.AllocsPerRun(100, func() { _, _, _ = InternPOI(&p) }); allocs != 0 {
		t.Errorf("an intern hit allocates %.1f times", allocs)
	}
	var view VisitView
	payload := EncodeVisitBinaryKeyed(&v, hash)
	if allocs := testing.AllocsPerRun(100, func() { _ = view.Parse(payload) }); allocs != 0 {
		t.Errorf("parsing keyed payload %x allocates %.1f times", payload, allocs)
	}
}

// TestMatchText: the match text is the name and the keywords,
// space-separated. For the document interned last for its id it is the
// shared version's, with no allocation; any other document's is built.
func TestMatchText(t *testing.T) {
	old := POI{ID: 9201, Name: "lykavittos", Keywords: []string{"view", "sunset"}}
	cur := POI{ID: 9201, Name: "lykavittos", Keywords: []string{"view", "sunset", "theatre"}, Hotness: 0.4}
	for _, p := range []*POI{&old, &cur} {
		if _, _, err := InternPOI(p); err != nil {
			t.Fatal(err)
		}
	}
	never := POI{ID: 9202, Name: "kerameikos"}
	for _, c := range []struct {
		p    *POI
		want string
	}{{&cur, "lykavittos view sunset theatre"}, {&old, "lykavittos view sunset"}, {&never, "kerameikos "}} {
		if got := MatchText(c.p); got != c.want {
			t.Errorf("MatchText(%s, %v) = %q, want %q", c.p.Name, c.p.Keywords, got, c.want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = MatchText(&cur) }); allocs != 0 {
		t.Errorf("the match text of the document interned last allocates %.1f times", allocs)
	}
}

// TestSharedDocsConcurrent interns and reads documents of overlapping POIs
// from several goroutines (run under -race by make check): every reader
// finds the document a writer interned before it, and equal documents
// intern to one copy.
func TestSharedDocsConcurrent(t *testing.T) {
	const workers, ids = 4, 200
	got := make([][]*POI, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*POI, ids)
			for i := 0; i < ids; i++ {
				p := POI{ID: int64(5000 + i), Name: "c", Keywords: []string{"k"}}
				d, h, err := InternPOI(&p)
				if err != nil || lookupDoc(p.ID, h) != d {
					t.Errorf("worker %d, POI %d: interned %p (%v), lookup disagrees", w, p.ID, d, err)
					return
				}
				got[w][i] = d
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range got[w] {
			if got[w][i] != got[0][i] {
				t.Fatalf("POI %d interned to two copies", 5000+i)
			}
		}
	}
}

// TestResolveHandles: Resolve takes a handle as it is only for a row of the
// handle's own POI id and document hash. A handle of another version of the
// POI, or of another POI with the row's hash, falls back to the table — and
// the row then fails as Parse fails when the table lacks its document. The
// text lengths a handle carries are its document's.
func TestResolveHandles(t *testing.T) {
	old := POI{ID: 9101, Name: "agora", Keywords: []string{"market"}}
	refreshed := POI{ID: 9101, Name: "agora", Keywords: []string{"market", "fresh-fish"}, Hotness: 0.7}
	other := POI{ID: 9102, Name: "stoa of attalos", Keywords: []string{"museum", "view"}}
	var docs [3]*POI
	var hashes [3]uint64
	for i, p := range []*POI{&old, &refreshed, &other} {
		var err error
		if docs[i], hashes[i], err = InternPOI(p); err != nil {
			t.Fatal(err)
		}
	}
	resolve := func(p *POI, hash uint64, h DocHandle) (*VisitView, DocHandle, error) {
		var v VisitView
		if err := v.ParseFields(EncodeVisitBinaryKeyed(&Visit{Grade: 3, POI: *p}, hash)); err != nil {
			t.Fatal(err)
		}
		got, err := v.Resolve(h)
		return &v, got, err
	}
	_, hOld, err := resolve(&old, hashes[0], DocHandle{})
	if err != nil || hOld.v == nil || hOld.v.doc != docs[0] {
		t.Fatalf("a resolve without a handle returned %+v (%v), want the old version's", hOld, err)
	}
	_, hOther, _ := resolve(&other, hashes[2], DocHandle{})
	for _, c := range []struct {
		name string
		row  *POI
		hash uint64
		h    DocHandle
		want *POI
	}{
		{"its own handle", &old, hashes[0], hOld, docs[0]},
		{"another version's handle", &refreshed, hashes[1], hOld, docs[1]},
		{"another POI's handle", &old, hashes[0], hOther, docs[0]},
		// Handles come from Resolve only; these two stand for a table
		// version of another POI under the row's hash, and for one of the
		// row's POI under another hash.
		{"another POI's handle under the row's hash", &old, hashes[0], DocHandle{v: hOther.v, id: other.ID, hash: hashes[0]}, docs[0]},
		{"the row's POI under another hash", &old, hashes[0], DocHandle{v: hOther.v, id: old.ID, hash: hashes[2]}, docs[0]},
	} {
		v, h, err := resolve(c.row, c.hash, c.h)
		if err != nil || v.SharedDoc() != c.want || h.v == nil || h.v.doc != c.want {
			t.Errorf("%s: resolved to %p with handle %+v (%v), want %p", c.name, v.SharedDoc(), h, err, c.want)
			continue
		}
		name, n, kwBytes := v.DocTextLen()
		wantBytes := 0
		for _, k := range c.want.Keywords {
			wantBytes += len(k)
		}
		if name != len(c.want.Name) || n != len(c.want.Keywords) || kwBytes != wantBytes {
			t.Errorf("%s: DocTextLen = %d, %d, %d; want %d, %d, %d", c.name, name, n, kwBytes, len(c.want.Name), len(c.want.Keywords), wantBytes)
		}
	}
	for _, h := range []DocHandle{{}, hOld, hOther} {
		v, got, err := resolve(&old, hashes[0]^1, h)
		if err == nil || !strings.Contains(err.Error(), "not in the shared table") || got.v != nil || v.SharedDoc() != nil {
			t.Errorf("a row naming a document the table lacks, handle %+v: resolved to %+v (%v)", h, got, err)
		}
	}
}

// TestVisitBinarySharedLayout round-trips keyed payloads, sizes them
// exactly, and rejects a hash the table does not hold
// (TestVisitBinaryRejectsCorruptPayloads cuts and pads them).
func TestVisitBinarySharedLayout(t *testing.T) {
	for _, v := range append(multiByteVisits(), sampleVisit(), Visit{UserID: -1 << 62, Time: math.MaxInt64, POI: POI{ID: math.MinInt64}}) {
		doc, hash, err := InternPOI(&v.POI)
		if err != nil {
			t.Fatal(err)
		}
		b := EncodeVisitBinaryKeyed(&v, hash)
		if len(b) != cap(b) {
			t.Errorf("keyed payload of %d bytes allocated %d", len(b), cap(b))
		}
		got, err := DecodeVisitBinary(b)
		if err != nil {
			t.Fatal(err)
		}
		want := v
		want.POI = *doc
		want.UserID, want.Time = 0, 0
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got.POI.Keywords, doc.Keywords) {
			t.Errorf("round trip of %x:\ngot  %+v\nwant %+v", b, got, want)
		}
		unknown := EncodeVisitBinaryKeyed(&v, hash^1)
		if _, err := DecodeVisitBinary(unknown); err == nil || !strings.Contains(err.Error(), "not in the shared table") {
			t.Errorf("a payload naming an unknown document: %v", err)
		}
	}
}

// BenchmarkSharedDocs is the write path's intern hit and the read path's
// parse of the shared-document payload it writes (its document lookup
// included).
func BenchmarkSharedDocs(b *testing.B) {
	v := sampleVisit()
	_, hash, err := InternPOI(&v.POI)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("intern_hit", func(b *testing.B) {
		p := v.POI
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _, _ = InternPOI(&p)
		}
	})
	b.Run("lookup", func(b *testing.B) {
		payload := EncodeVisitBinaryKeyed(&v, hash)
		var view VisitView
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = view.Parse(payload)
		}
	})
}
