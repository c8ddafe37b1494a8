package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Binary visit codec. The Visits repository is the platform's hottest read
// path: every personalized query decodes one payload per scanned visit row,
// and the replicated schema gives each a full POI document. JSON
// decoding pays reflection and field-name matching per row; this codec is a
// flat, length-prefixed binary layout with a leading tag byte. It is the only
// visit format: every writer has emitted it since before the durable log
// existed, so no log holds a JSON visit, and readers treat a payload without
// a known tag as corrupt. The tag byte stays reserved — a new layout takes a
// new tag, never '{', so a JSON document can never pass for one.
//
// Layout: tag byte, version byte, then fields. Integers are varints, floats
// are 8-byte little-endian IEEE 754 bits, strings are uvarint length
// prefixes followed by raw bytes. Tags 0x01 to 0x03 share the prefix user,
// time, grade, network, POI id; then
//
//	0x01 replicated: name, lat, lon, keyword count, keywords, hotness, interest
//	0x02 normalized: nothing
//	0x03 shared:     the document's content hash, 8 bytes little-endian
//
// Tag 0x04 drops user and time, which the row key holds, and puts its fixed
// fields first:
//
//	0x04 keyed: document hash (8 bytes LE), grade (float), POI id, network
//
// The replicated schema writes 0x04 and keeps the document in the shared
// table (docs.go); 0x01 and 0x03 rows written before it decode forever.

const (
	// VisitBinaryTagReplicated marks a full replicated-schema visit payload
	// (embedded POI document).
	VisitBinaryTagReplicated byte = 0x01
	// VisitBinaryTagNormalized marks a compact normalized-schema payload
	// (POI id only; the reader joins the rest).
	VisitBinaryTagNormalized byte = 0x02
	// VisitBinaryTagShared marks a replicated-schema visit payload whose POI
	// document is the shared copy its id and content hash name (InternPOI).
	VisitBinaryTagShared byte = 0x03
	// VisitBinaryTagKeyed marks a shared-document payload without user and
	// time: the row key carries them, so the payload alone does not.
	VisitBinaryTagKeyed byte = 0x04
	// visitBinaryVersion is the current layout version. Decoders reject
	// versions they do not know instead of misreading them.
	visitBinaryVersion byte = 1
)

// EncodeVisitBinary encodes a visit with its POI document embedded: the
// replicated schema's row layout before shared documents, and the documents
// log's record of one document.
func EncodeVisitBinary(v *Visit) []byte {
	n := 2 + 3*binary.MaxVarintLen64 + 8 + len(v.Network) + len(v.POI.Name) + 16 + 16 + 2 + 8
	for _, k := range v.POI.Keywords {
		n += len(k) + 1
	}
	b := make([]byte, 0, n)
	b = append(b, VisitBinaryTagReplicated, visitBinaryVersion)
	b = binary.AppendVarint(b, v.UserID)
	b = binary.AppendVarint(b, v.Time)
	b = appendFloat(b, v.Grade)
	b = appendString(b, v.Network)
	b = binary.AppendVarint(b, v.POI.ID)
	b = appendString(b, v.POI.Name)
	b = appendFloat(b, v.POI.Lat)
	b = appendFloat(b, v.POI.Lon)
	b = binary.AppendUvarint(b, uint64(len(v.POI.Keywords)))
	for _, k := range v.POI.Keywords {
		b = appendString(b, k)
	}
	b = appendFloat(b, v.POI.Hotness)
	b = appendFloat(b, v.POI.Interest)
	return b
}

// EncodeVisitBinaryKeyed encodes a replicated-schema visit as a reference to
// its shared POI document, hash being the content hash InternPOI returned for
// v.POI. User and time are left to the row key.
func EncodeVisitBinaryKeyed(v *Visit, hash uint64) []byte {
	n := 2 + 8 + 8 + varintLen(v.POI.ID) + uvarintLen(uint64(len(v.Network))) + len(v.Network)
	b := make([]byte, 0, n)
	b = append(b, VisitBinaryTagKeyed, visitBinaryVersion)
	b = binary.LittleEndian.AppendUint64(b, hash)
	b = appendFloat(b, v.Grade)
	b = binary.AppendVarint(b, v.POI.ID)
	return appendString(b, v.Network)
}

// EncodeVisitBinaryNormalized encodes the normalized-schema projection of a
// visit: identity, time, grade, network and the POI id.
func EncodeVisitBinaryNormalized(v *Visit) []byte {
	b := make([]byte, 0, 2+3*binary.MaxVarintLen64+8+len(v.Network))
	b = append(b, VisitBinaryTagNormalized, visitBinaryVersion)
	b = binary.AppendVarint(b, v.UserID)
	b = binary.AppendVarint(b, v.Time)
	b = appendFloat(b, v.Grade)
	b = appendString(b, v.Network)
	b = binary.AppendVarint(b, v.POI.ID)
	return b
}

// VisitView is an allocation-free view of one validated binary visit
// payload: the scalar fields are decoded, while the strings and the keyword
// list stay behind as sub-slices of the payload. The personalized-query
// coprocessor filters and aggregates every scanned row from a view and
// materializes a POI document only for the first row of each POI, so the
// per-row cost of the replicated schema is a field walk, not a document
// decode. A view aliases the payload it was built from and is valid only
// while those bytes are; the zero value is ready for Parse, and one view can
// be parsed over any number of payloads. A normalized payload leaves every
// POI field but POIID at its zero value; a shared-document payload reads its
// POI fields from the shared document only when asked for them, and a keyed
// payload leaves UserID and Time at zero (its row key holds them).
type VisitView struct {
	UserID int64
	// Time is the visit timestamp in milliseconds since epoch.
	Time  int64
	Grade float64
	POIID int64

	network []byte
	// The document fields a 0x01 payload embeds.
	name              []byte
	lat, lon          float64
	hotness, interest float64
	// keywords is the encoded keyword span: nKeywords length-prefixed
	// strings, every length already checked against the span.
	keywords  []byte
	nKeywords int
	// doc is the shared document a shared-document payload names.
	doc *POI
}

// Parse points the view at a binary visit payload of any layout,
// dispatching on the tag byte. It is the codec's only parser —
// DecodeVisitBinary materializes its result — and rejects an unknown version
// or tag, any length or count that overruns the payload, trailing bytes, and
// a shared-document payload whose document this process does not hold.
// It is one pass over the payload by offset; a length or varint of one byte
// (most of them) is read without calling into encoding/binary. A view whose
// Parse failed holds no usable state.
func (v *VisitView) Parse(b []byte) error {
	if len(b) < 2 {
		return fmt.Errorf("model: binary visit too short (%d bytes)", len(b))
	}
	tag, version := b[0], b[1]
	if version != visitBinaryVersion {
		return fmt.Errorf("model: binary visit version %d not supported (tag 0x%02x)", version, tag)
	}
	if tag == VisitBinaryTagKeyed {
		return v.parseKeyed(b)
	}
	if tag != VisitBinaryTagReplicated && tag != VisitBinaryTagNormalized && tag != VisitBinaryTagShared {
		return fmt.Errorf("model: unknown binary visit tag 0x%02x", tag)
	}
	*v = VisitView{}
	off := 2
	var err error
	if v.UserID, off = varintAt(b, off); off < 0 {
		return errAtVarint
	}
	if v.Time, off = varintAt(b, off); off < 0 {
		return errAtVarint
	}
	if v.Grade, off = floatAt(b, off); off < 0 {
		return errAtFloat
	}
	if v.network, off, err = stringAt(b, off); err != nil {
		return err
	}
	if v.POIID, off = varintAt(b, off); off < 0 {
		return errAtVarint
	}
	if tag == VisitBinaryTagShared {
		if len(b)-off < 8 {
			return errAtDocHash
		}
		hash := binary.LittleEndian.Uint64(b[off:])
		if off += 8; off != len(b) {
			return errTrailing(len(b) - off)
		}
		return v.lookupDoc(hash)
	}
	if tag == VisitBinaryTagReplicated {
		if v.name, off, err = stringAt(b, off); err != nil {
			return err
		}
		if v.lat, off = floatAt(b, off); off < 0 {
			return errAtFloat
		}
		if v.lon, off = floatAt(b, off); off < 0 {
			return errAtFloat
		}
		var n uint64
		if n, off = uvarintAt(b, off); off < 0 {
			return errAtUvarint
		}
		// Every keyword takes at least its length byte, so a count beyond
		// the remaining bytes is corrupt whatever follows.
		if n > uint64(len(b)-off) {
			return errAtKeywordCount
		}
		start := off
		for i := uint64(0); i < n; i++ {
			if _, off, err = stringAt(b, off); err != nil {
				return err
			}
		}
		v.keywords, v.nKeywords = b[start:off], int(n)
		if v.hotness, off = floatAt(b, off); off < 0 {
			return errAtFloat
		}
		if v.interest, off = floatAt(b, off); off < 0 {
			return errAtFloat
		}
	}
	if off != len(b) {
		return errTrailing(len(b) - off)
	}
	return nil
}

// parseKeyed is Parse for a keyed payload, whose hash and grade sit at fixed
// offsets: it reads the POI id and the network after them and leaves the
// document unread until a predicate asks for it.
func (v *VisitView) parseKeyed(b []byte) error {
	if len(b) < 10 {
		return errAtDocHash
	}
	if len(b) < 18 {
		return errAtFloat
	}
	*v = VisitView{Grade: math.Float64frombits(binary.LittleEndian.Uint64(b[10:]))}
	off := 18
	var err error
	if v.POIID, off = varintAt(b, off); off < 0 {
		return errAtVarint
	}
	if v.network, off, err = stringAt(b, off); err != nil {
		return err
	}
	if off != len(b) {
		return errTrailing(len(b) - off)
	}
	return v.lookupDoc(binary.LittleEndian.Uint64(b[2:]))
}

// lookupDoc points the view at the shared document of its POI and hash.
func (v *VisitView) lookupDoc(hash uint64) error {
	if v.doc = sharedDocs.lookup(v.POIID, hash); v.doc == nil {
		return fmt.Errorf("model: binary visit names POI %d document %016x, which is not in the shared table", v.POIID, hash)
	}
	return nil
}

// errTrailing rejects a payload with n bytes after its last field.
func errTrailing(n int) error { return fmt.Errorf("model: %d trailing bytes in binary visit", n) }

// Location returns the POI's latitude and longitude: the shared document's
// under a shared-document layout, the embedded ones under the replicated
// layout, zero under the normalized one. Parse does not copy them, so a scan
// whose predicates need no location never reads the document for them.
func (v *VisitView) Location() (lat, lon float64) {
	if v.doc != nil {
		return v.doc.Lat, v.doc.Lon
	}
	return v.lat, v.lon
}

// nextString splits the first length-prefixed string off a span Parse has
// already validated.
func nextString(span []byte) (s, rest []byte) {
	n, w := uvarintAt(span, 0)
	end := w + int(n)
	return span[w:end], span[end:]
}

// HasKeyword reports whether kw is one of the visit's POI keywords,
// comparing bytes in place.
func (v *VisitView) HasKeyword(kw string) bool {
	if v.doc != nil {
		return slices.Contains(v.doc.Keywords, kw)
	}
	for rest := v.keywords; len(rest) > 0; {
		var k []byte
		if k, rest = nextString(rest); string(k) == kw {
			return true
		}
	}
	return false
}

// DocTextLen returns the byte lengths of the POI document's strings: the
// name's, and the keywords' count and summed length (length prefixes
// excluded) — what a decoded copy of the document carries beyond its
// fixed-size fields, without decoding it.
func (v *VisitView) DocTextLen() (name, keywords, keywordBytes int) {
	if v.doc != nil {
		for _, k := range v.doc.Keywords {
			keywordBytes += len(k)
		}
		return len(v.doc.Name), len(v.doc.Keywords), keywordBytes
	}
	for rest := v.keywords; len(rest) > 0; {
		var k []byte
		k, rest = nextString(rest)
		keywordBytes += len(k)
	}
	return len(v.name), v.nKeywords, keywordBytes
}

// POI materializes the POI document the payload carries: the full record
// under the replicated layout, the id alone under the normalized one. Under
// the shared layout it is a copy of the shared document's struct that shares
// its keyword slice, so it allocates nothing and must not be modified.
func (v *VisitView) POI() POI {
	if v.doc != nil {
		return *v.doc
	}
	p := POI{ID: v.POIID, Name: string(v.name), Lat: v.lat, Lon: v.lon, Hotness: v.hotness, Interest: v.interest}
	if v.nKeywords > 0 {
		p.Keywords = make([]string, v.nKeywords)
		rest := v.keywords
		for i := range p.Keywords {
			var k []byte
			k, rest = nextString(rest)
			p.Keywords[i] = string(k)
		}
	}
	return p
}

// SharedDoc returns the shared document a shared-document payload names, or
// nil for the other layouts.
func (v *VisitView) SharedDoc() *POI { return v.doc }

// Visit materializes the whole visit.
func (v *VisitView) Visit() Visit {
	return Visit{UserID: v.UserID, Time: v.Time, Grade: v.Grade, Network: string(v.network), POI: v.POI()}
}

// DecodeVisitBinary decodes any binary visit layout. Normalized payloads
// yield a Visit whose POI carries only the id; shared-document payloads one
// whose POI shares the shared document's keyword slice. A keyed payload
// yields UserID and Time zero: they are its row key's.
func DecodeVisitBinary(b []byte) (Visit, error) {
	var view VisitView
	if err := view.Parse(b); err != nil {
		return Visit{}, err
	}
	return view.Visit(), nil
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return max(1, (bits.Len64(x)+6)/7) }

// varintLen is the length of x's zig-zag varint encoding.
func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// The truncation errors, one per field kind: Parse rejects a payload at the
// first field the remaining bytes cannot hold.
var (
	errAtVarint       = errors.New("model: truncated binary visit at varint")
	errAtUvarint      = errors.New("model: truncated binary visit at uvarint")
	errAtFloat        = errors.New("model: truncated binary visit at float")
	errAtString       = errors.New("model: truncated binary visit at string")
	errAtKeywordCount = errors.New("model: truncated binary visit at keyword count")
	errAtDocHash      = errors.New("model: truncated binary visit at document hash")
)

// uvarintAt decodes the uvarint at b[off:] and returns it with the offset
// past it, or -1 if the bytes end or the value overflows first. A one-byte
// value takes the fast path; the rest are binary.Uvarint's, so non-minimal
// encodings are accepted exactly as before.
func uvarintAt(b []byte, off int) (uint64, int) {
	if off < len(b) && b[off] < 0x80 {
		return uint64(b[off]), off + 1
	}
	x, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, -1
	}
	return x, off + n
}

// varintAt is uvarintAt for a zig-zag signed varint (binary.Varint's
// decoding).
func varintAt(b []byte, off int) (int64, int) {
	ux, next := uvarintAt(b, off)
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, next
}

// floatAt decodes the 8-byte little-endian float at b[off:], or returns -1
// as the offset if fewer bytes remain.
func floatAt(b []byte, off int) (float64, int) {
	if len(b)-off < 8 {
		return 0, -1
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[off:])), off + 8
}

// stringAt returns the length-prefixed string at b[off:] as a sub-slice of
// the payload, with the offset past it.
func stringAt(b []byte, off int) ([]byte, int, error) {
	n, next := uvarintAt(b, off)
	if next < 0 {
		return nil, -1, errAtUvarint
	}
	if n > uint64(len(b)-next) {
		return nil, -1, errAtString
	}
	end := next + int(n)
	return b[next:end], end, nil
}
