package model

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Shared POI documents. The replicated schema (§2.1) puts a POI's document
// beside every visit so a region answers a query without a remote join.
// Copying the document into each row costs most of the row's bytes, so a
// replicated visit (tag VisitBinaryTagKeyed) carries only the POI id and a
// 64-bit hash of the document's content, and the document itself is kept once per process in the table
// below, keyed by (id, hash). Every region server of the process reads it
// locally: the schema is still replicated, per process instead of per row.
//
// The table is content-addressed, so every platform of a process shares it.
// Entries are immutable and never removed: a document rewritten by a HotIn
// refresh is a new entry next to the old one, which rows written before the
// refresh still name. Two documents with one id and one hash would make a row
// ambiguous, so interning a document whose (id, hash) already names a
// different one fails instead of aliasing it.
//
// A version records its document's text lengths when it is interned, so a
// reader sizing a row's document (VisitView.DocTextLen) never walks its
// keywords, and its match text (MatchText), so a publisher never builds it. A reader that resolves many rows of one POI can keep the
// DocHandle a resolve returned and pass it to the next resolve, which
// trusts it only for a row of the same id and hash: one compare instead of
// a table lookup, and no row is ever pointed at another row's document.

// maxDenseID bounds the POI ids whose slots live in the table's dense array,
// indexed by id; the catalog's ids are small and dense. Other ids take a
// map.
const maxDenseID = 1 << 20

// docTable maps (POI id, content hash) to the one shared copy of a document.
// Reads take no lock; inserts serialize on mu and publish copy-on-write.
type docTable struct {
	mu     sync.Mutex
	dense  atomic.Pointer[[]atomic.Pointer[docSlot]]
	sparse atomic.Pointer[map[int64]*docSlot]
	hash   func(*POI) uint64
}

// docSlot holds every document version one POI id has been interned with.
type docSlot struct {
	// latest is the version interned last: the one the next visit to the
	// POI most likely carries, and the first one a lookup compares.
	latest atomic.Pointer[docVersion]
	// versions lists every version, oldest first; replaced, never changed.
	versions atomic.Pointer[[]*docVersion]
}

// docVersion is one interned document with the text lengths DocTextLen
// reports for it and the text MatchText returns for it, computed once at
// intern.
type docVersion struct {
	hash uint64
	doc  *POI
	// nameLen, nKeywords and keywordBytes are the name's length, the
	// keyword count and the keywords' summed length.
	nameLen, nKeywords, keywordBytes int
	// text is the document's match text.
	text string
}

func newDocVersion(doc *POI, hash uint64) *docVersion {
	v := &docVersion{hash: hash, doc: doc, nameLen: len(doc.Name), nKeywords: len(doc.Keywords), text: matchText(doc)}
	for _, k := range doc.Keywords {
		v.keywordBytes += len(k)
	}
	return v
}

// matchText is a document's name and keywords, space-separated.
func matchText(p *POI) string { return p.Name + " " + strings.Join(p.Keywords, " ") }

// MatchText returns the text a standing query's keywords are matched against
// for p's document: its name and its keywords, space-separated. For the
// document interned last for p's id, which a replicated visit just stored
// names, it is the shared version's text and nothing is allocated; any other
// document's text is built.
func MatchText(p *POI) string {
	if v := sharedDocs.latestSame(p); v != nil {
		return v.text
	}
	return matchText(p)
}

// DocHandle is an opaque handle on one version of a shared POI document,
// which VisitView.Resolve returns and accepts back as a hint. It carries the
// version's POI id and hash beside it, so checking it against a row reads the
// handle alone. Its zero value is no handle.
type DocHandle struct {
	v    *docVersion
	id   int64
	hash uint64
}

// sharedDocs is the process's table.
var sharedDocs = docTable{hash: hashPOI}

// InternPOI returns the shared copy of p's document and its content hash,
// adding the document to the process-wide table if it is new. The shared copy
// must not be modified. A visit to the POI and document interned last (the
// common case) is found by comparing values: no hash is computed, no lock is
// taken and nothing is allocated. It fails only when the hash of p's content
// already names a different document of the same id.
func InternPOI(p *POI) (*POI, uint64, error) { return sharedDocs.intern(p) }

func (t *docTable) slot(id int64) *docSlot {
	if id >= 0 && id < maxDenseID {
		if d := t.dense.Load(); d != nil && id < int64(len(*d)) {
			return (*d)[id].Load()
		}
		return nil
	}
	if m := t.sparse.Load(); m != nil {
		return (*m)[id]
	}
	return nil
}

// lookupVersion returns the version (id, hash) names, or nil.
func (t *docTable) lookupVersion(id int64, hash uint64) *docVersion {
	s := t.slot(id)
	if s == nil {
		return nil
	}
	if v := s.latest.Load(); v.hash == hash {
		return v
	}
	for _, v := range *s.versions.Load() {
		if v.hash == hash {
			return v
		}
	}
	return nil
}

// latestSame returns the version interned last for p's id if it is p's
// document, or nil: the lookup that takes no lock and computes no hash.
func (t *docTable) latestSame(p *POI) *docVersion {
	if s := t.slot(p.ID); s != nil {
		if v := s.latest.Load(); SameDocument(v.doc, p) {
			return v
		}
	}
	return nil
}

func (t *docTable) intern(p *POI) (*POI, uint64, error) {
	if v := t.latestSame(p); v != nil {
		return v.doc, v.hash, nil
	}
	hash := t.hash(p)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.slot(p.ID)
	if s != nil {
		for _, v := range *s.versions.Load() {
			if v.hash != hash {
				continue
			}
			if !SameDocument(v.doc, p) {
				return nil, 0, fmt.Errorf("model: POI %d document hash %016x already names a different document", p.ID, hash)
			}
			s.latest.Store(v)
			return v.doc, hash, nil
		}
	}
	doc := *p
	doc.Keywords = nil
	if len(p.Keywords) > 0 {
		doc.Keywords = slices.Clone(p.Keywords)
	}
	v := newDocVersion(&doc, hash)
	if s == nil {
		s = &docSlot{}
		s.versions.Store(&[]*docVersion{v})
		s.latest.Store(v)
		t.publishLocked(p.ID, s)
		return v.doc, hash, nil
	}
	versions := append(slices.Clip(*s.versions.Load()), v)
	s.versions.Store(&versions)
	s.latest.Store(v)
	return v.doc, hash, nil
}

// publishLocked makes a new slot visible to readers. The dense array grows by
// doubling, so publishing n ids copies O(n) slots in all.
func (t *docTable) publishLocked(id int64, s *docSlot) {
	if id < 0 || id >= maxDenseID {
		grown := map[int64]*docSlot{id: s}
		if m := t.sparse.Load(); m != nil {
			for k, v := range *m {
				grown[k] = v
			}
		}
		t.sparse.Store(&grown)
		return
	}
	var d []atomic.Pointer[docSlot]
	if p := t.dense.Load(); p != nil {
		d = *p
	}
	if id >= int64(len(d)) {
		grown := make([]atomic.Pointer[docSlot], min(max(2*len(d), int(id)+1, 64), maxDenseID))
		for i := range d {
			grown[i].Store(d[i].Load())
		}
		grown[id].Store(s)
		t.dense.Store(&grown)
		return
	}
	d[id].Store(s)
}

// IsShared reports whether p is one of the process's shared document
// versions — what InternPOI returns and VisitView.SharedDoc names — rather
// than a copy of one.
func IsShared(p *POI) bool {
	s := sharedDocs.slot(p.ID)
	if s == nil {
		return false
	}
	if s.latest.Load().doc == p {
		return true
	}
	for _, v := range *s.versions.Load() {
		if v.doc == p {
			return true
		}
	}
	return false
}

// SameDocument reports whether a and b are one document: at once when they
// are one pointer, as two references to a shared version are, else field by
// field. Floats compare by bits, as the codec stores them, so a NaN equals
// itself and -0 is not 0.
func SameDocument(a, b *POI) bool {
	return a == b || a.ID == b.ID && a.Name == b.Name && sameBits(a.Lat, b.Lat) && sameBits(a.Lon, b.Lon) &&
		sameBits(a.Hotness, b.Hotness) && sameBits(a.Interest, b.Interest) && slices.Equal(a.Keywords, b.Keywords)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashPOI is the 64-bit FNV-1a hash of a document's canonical bytes: the id,
// the name, lat and lon, the keywords, hotness and interest, each integer and
// float as 8 little-endian bytes and each string and list preceded by its
// length. Rows store it, so it must never change.
func hashPOI(p *POI) uint64 {
	h := fnvUint64(fnvOffset64, uint64(p.ID))
	h = fnvString(h, p.Name)
	h = fnvUint64(h, math.Float64bits(p.Lat))
	h = fnvUint64(h, math.Float64bits(p.Lon))
	h = fnvUint64(h, uint64(len(p.Keywords)))
	for _, k := range p.Keywords {
		h = fnvString(h, k)
	}
	h = fnvUint64(h, math.Float64bits(p.Hotness))
	return fnvUint64(h, math.Float64bits(p.Interest))
}

func fnvUint64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime64
		x >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	h = fnvUint64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}
