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
// Layout: tag byte, version byte, then fields. The normalized layout's
// integers are varints, floats are 8-byte little-endian IEEE 754 bits, and
// strings are uvarint length prefixes followed by raw bytes. The keyed
// layout is fixed-width: its fields are 8-byte little-endian words and a
// one-byte network code. The two visit layouts are
//
//	0x02 normalized: user, time, grade, network, POI id
//	0x05 keyed:      document hash, grade (float bits), POI id, network code
//
// The network code indexes networkCodes, an append-only table of the names
// the platform's connectors use; code 0xff is an escape followed by the
// name, length-prefixed, so any other network round-trips. A keyed row of a
// tabled network is 27 bytes, which ParseFields reads with three loads.
//
// The replicated schema writes 0x05, leaving user and time to the row key
// and the document to the shared table (docs.go); the normalized schema
// writes 0x02. Reading a 0x05 row takes two steps: ParseFields reads the
// bytes, and Resolve finds the document the row's id and hash name — in the
// table, or in a handle an earlier Resolve returned for a row of the same
// POI. No other tag is a visit: the rows of the deleted layouts 0x01
// (embedded document), 0x03 (the first shared layout) and 0x04 (the varint
// keyed layout) fail as unknown.
//
// Tag 0x01 lives on as the documents log's record (EncodeVisitBinary,
// DecodeDocRecord): the 0x02 fields, then the document's name, lat, lon,
// keyword count, keywords, hotness and interest.

const (
	// VisitBinaryTagReplicated marks a documents-log record: a visit
	// payload with its POI document embedded, which no visit row holds.
	VisitBinaryTagReplicated byte = 0x01
	// VisitBinaryTagNormalized marks a compact normalized-schema payload
	// (POI id only; the reader joins the rest).
	VisitBinaryTagNormalized byte = 0x02
	// VisitBinaryTagKeyed marks a replicated-schema visit payload whose POI
	// document is the shared copy its id and content hash name (InternPOI),
	// without user and time: the row key carries them.
	VisitBinaryTagKeyed byte = 0x05
	// visitBinaryVersion is the current layout version. Decoders reject
	// versions they do not know instead of misreading them.
	visitBinaryVersion byte = 1

	// keyedLen is the length of a keyed payload whose network has a code.
	keyedLen = 27
	// networkEscape is the network code followed by the name itself.
	networkEscape byte = 0xff
)

// networkCodes is the keyed layout's network code table: a code is an index.
// Rows store the codes, so the table only grows, at its end. A view of a
// coded row hands out the table's own string, so decoding one copies no name.
var networkCodes = [...]string{"", "facebook", "twitter", "foursquare"}

// EncodeVisitBinary encodes a visit with its POI document embedded: the
// documents log's record of one document (DecodeDocRecord reads it back).
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
	code := networkEscape
	n := keyedLen + uvarintLen(uint64(len(v.Network))) + len(v.Network)
	for i, name := range networkCodes {
		if name == v.Network {
			code, n = byte(i), keyedLen
			break
		}
	}
	b := make([]byte, 0, n)
	b = append(b, VisitBinaryTagKeyed, visitBinaryVersion)
	b = binary.LittleEndian.AppendUint64(b, hash)
	b = appendFloat(b, v.Grade)
	b = binary.LittleEndian.AppendUint64(b, uint64(v.POI.ID))
	if b = append(b, code); code == networkEscape {
		b = appendString(b, v.Network)
	}
	return b
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
// payload: the scalar fields are decoded, while the network stays behind as
// its code in the table or, escaped or normalized, a sub-slice of the
// payload. The personalized-query
// coprocessor filters and aggregates every scanned row from a view and reads
// a keyed row's document only through the shared version Resolve found, so
// the per-row cost of the replicated schema is three loads, not a document
// decode. A view aliases the payload it was built from and is valid only
// while those bytes are; the zero value is ready for Parse, and one view can
// be parsed over any number of payloads. A normalized payload leaves every POI field but POIID
// at its zero value, and a keyed payload leaves UserID and Time at zero (its
// row key holds them).
type VisitView struct {
	UserID int64
	// Time is the visit timestamp in milliseconds since epoch.
	Time  int64
	Grade float64
	POIID int64

	// code indexes networkCodes, or is networkEscape when network holds
	// the name.
	code    byte
	network []byte
	// shared marks a keyed payload, docHash the hash it names.
	shared  bool
	docHash uint64
	// ver is the shared document version Resolve found.
	ver *docVersion
}

// Parse points the view at a binary visit payload of either layout:
// ParseFields, then Resolve with no handle. It is the codec's only visit
// parser — DecodeVisitBinary materializes its result — and rejects an
// unknown version or tag, any length that overruns the payload, trailing
// bytes, and a keyed payload whose document this process does not hold. A
// view whose Parse failed holds no usable state.
func (v *VisitView) Parse(b []byte) error {
	if err := v.ParseFields(b); err != nil {
		return err
	}
	_, err := v.Resolve(DocHandle{})
	return err
}

// ParseFields is Parse's pass over the bytes, dispatching on the tag byte:
// it validates the whole payload and decodes its fields, but leaves a keyed
// payload's document to Resolve, which must run before any of the view's
// document fields are read. A keyed payload of a tabled network is a length
// compare, a code check and three loads; the normalized one is one pass by
// offset, where a length or varint of one byte (most of them) is read
// without calling into encoding/binary.
func (v *VisitView) ParseFields(b []byte) error {
	if len(b) == keyedLen && b[0] == VisitBinaryTagKeyed && b[1] == visitBinaryVersion && int(b[26]) < len(networkCodes) {
		// Field by field: a composite literal is built aside and copied.
		v.UserID, v.Time = 0, 0
		v.Grade = math.Float64frombits(binary.LittleEndian.Uint64(b[10:]))
		v.POIID = int64(binary.LittleEndian.Uint64(b[18:]))
		v.code = b[26]
		v.shared, v.docHash, v.ver = true, binary.LittleEndian.Uint64(b[2:]), nil
		return nil
	}
	if len(b) < 2 {
		return fmt.Errorf("model: binary visit too short (%d bytes)", len(b))
	}
	tag, version := b[0], b[1]
	if version != visitBinaryVersion {
		return fmt.Errorf("model: binary visit version %d not supported (tag 0x%02x)", version, tag)
	}
	if tag == VisitBinaryTagKeyed {
		return v.parseEscaped(b)
	}
	if tag != VisitBinaryTagNormalized {
		return fmt.Errorf("model: unknown binary visit tag 0x%02x", tag)
	}
	*v = VisitView{code: networkEscape}
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
	if off != len(b) {
		return errTrailing(len(b) - off)
	}
	return nil
}

// parseEscaped is ParseFields for a keyed payload its fast path refused: one
// whose network is escaped, or one that is cut, has trailing bytes or names
// an unknown code.
func (v *VisitView) parseEscaped(b []byte) error {
	switch {
	case len(b) < 10:
		return errAtDocHash
	case len(b) < 18:
		return errAtFloat
	case len(b) < 26:
		return errAtPOIID
	case len(b) < keyedLen:
		return errAtNetworkCode
	}
	*v = VisitView{
		Grade:   math.Float64frombits(binary.LittleEndian.Uint64(b[10:])),
		POIID:   int64(binary.LittleEndian.Uint64(b[18:])),
		code:    b[26],
		shared:  true,
		docHash: binary.LittleEndian.Uint64(b[2:]),
	}
	off := keyedLen
	if v.code != networkEscape {
		if int(v.code) >= len(networkCodes) {
			return errUnknownNetworkCode
		}
	} else {
		var err error
		if v.network, off, err = stringAt(b, off); err != nil {
			return err
		}
	}
	if off != len(b) {
		return errTrailing(len(b) - off)
	}
	return nil
}

// Resolve points a view ParseFields left at a keyed payload at the document
// version its POI id and hash name, and returns a handle on it; a normalized
// payload names no document and gets no handle. A handle an earlier Resolve
// returned is taken as it is when it names the row's own id and hash, which
// spares the table lookup; any other handle is ignored. It fails when the
// table holds no such document, which, since table entries are never
// removed, a handle cannot hide.
func (v *VisitView) Resolve(h DocHandle) (DocHandle, error) {
	if !v.shared {
		return DocHandle{}, nil
	}
	if h.v == nil || h.id != v.POIID || h.hash != v.docHash {
		ver := sharedDocs.lookupVersion(v.POIID, v.docHash)
		if ver == nil {
			return DocHandle{}, fmt.Errorf("model: binary visit names POI %d document %016x, which is not in the shared table", v.POIID, v.docHash)
		}
		h = DocHandle{v: ver, id: v.POIID, hash: v.docHash}
	}
	v.ver = h.v
	return h, nil
}

// errTrailing rejects a payload with n bytes after its last field.
func errTrailing(n int) error { return fmt.Errorf("model: %d trailing bytes in binary visit", n) }

// Location returns the POI's latitude and longitude: the shared document's
// under the keyed layout, zero under the normalized one. Parse does not copy
// them, so a scan whose predicates need no location never reads the
// document for them.
func (v *VisitView) Location() (lat, lon float64) {
	if v.ver == nil {
		return 0, 0
	}
	return v.ver.doc.Lat, v.ver.doc.Lon
}

// HasKeyword reports whether kw is one of the visit's POI keywords; a
// normalized payload has none.
func (v *VisitView) HasKeyword(kw string) bool {
	return v.ver != nil && slices.Contains(v.ver.doc.Keywords, kw)
}

// DocTextLen returns the byte lengths of the POI document's strings: the
// name's, and the keywords' count and summed length — what a decoded copy
// of the document carries beyond its fixed-size fields. A shared document's
// were computed when it was interned; a normalized payload's are zero.
func (v *VisitView) DocTextLen() (name, keywords, keywordBytes int) {
	if v.ver == nil {
		return 0, 0, 0
	}
	return v.ver.nameLen, v.ver.nKeywords, v.ver.keywordBytes
}

// POI materializes the POI document the payload names: the id alone under
// the normalized layout, and under the keyed one a copy of the shared
// document's struct that shares its keyword slice, so it allocates nothing
// and must not be modified.
func (v *VisitView) POI() POI {
	if v.ver == nil {
		return POI{ID: v.POIID}
	}
	return *v.ver.doc
}

// SharedDoc returns the shared document a keyed payload names, or nil for a
// normalized one.
func (v *VisitView) SharedDoc() *POI {
	if v.ver == nil {
		return nil
	}
	return v.ver.doc
}

// Visit materializes the whole visit.
func (v *VisitView) Visit() Visit {
	var network string
	if v.code == networkEscape {
		network = string(v.network)
	} else {
		network = networkCodes[v.code]
	}
	return Visit{UserID: v.UserID, Time: v.Time, Grade: v.Grade, Network: network, POI: v.POI()}
}

// DecodeVisitBinary decodes a binary visit of either layout. Normalized
// payloads yield a Visit whose POI carries only the id; keyed payloads one
// whose POI shares the shared document's keyword slice, with UserID and Time
// zero: they are its row key's.
func DecodeVisitBinary(b []byte) (Visit, error) {
	var view VisitView
	if err := view.Parse(b); err != nil {
		return Visit{}, err
	}
	return view.Visit(), nil
}

// DecodeDocRecord decodes one record of the documents log, EncodeVisitBinary's
// layout, and returns the POI document it embeds; the record's visit fields
// are validated and dropped. The log is read from disk, so every length and
// count is checked against the bytes left, and trailing bytes fail.
func DecodeDocRecord(b []byte) (POI, error) {
	if len(b) < 2 {
		return POI{}, fmt.Errorf("model: document record too short (%d bytes)", len(b))
	}
	if tag, version := b[0], b[1]; tag != VisitBinaryTagReplicated || version != visitBinaryVersion {
		return POI{}, fmt.Errorf("model: document record tag 0x%02x version %d not supported", tag, version)
	}
	off := 2
	var err error
	// User, time, grade and network: a record's visit fields.
	if _, off = varintAt(b, off); off < 0 {
		return POI{}, errAtVarint
	}
	if _, off = varintAt(b, off); off < 0 {
		return POI{}, errAtVarint
	}
	if _, off = floatAt(b, off); off < 0 {
		return POI{}, errAtFloat
	}
	if _, off, err = stringAt(b, off); err != nil {
		return POI{}, err
	}
	var p POI
	if p.ID, off = varintAt(b, off); off < 0 {
		return POI{}, errAtVarint
	}
	var name []byte
	if name, off, err = stringAt(b, off); err != nil {
		return POI{}, err
	}
	p.Name = string(name)
	if p.Lat, off = floatAt(b, off); off < 0 {
		return POI{}, errAtFloat
	}
	if p.Lon, off = floatAt(b, off); off < 0 {
		return POI{}, errAtFloat
	}
	var n uint64
	if n, off = uvarintAt(b, off); off < 0 {
		return POI{}, errAtUvarint
	}
	// Every keyword takes at least its length byte, so a count beyond the
	// remaining bytes is corrupt whatever follows.
	if n > uint64(len(b)-off) {
		return POI{}, errAtKeywordCount
	}
	if n > 0 {
		p.Keywords = make([]string, n)
		for i := range p.Keywords {
			var k []byte
			if k, off, err = stringAt(b, off); err != nil {
				return POI{}, err
			}
			p.Keywords[i] = string(k)
		}
	}
	if p.Hotness, off = floatAt(b, off); off < 0 {
		return POI{}, errAtFloat
	}
	if p.Interest, off = floatAt(b, off); off < 0 {
		return POI{}, errAtFloat
	}
	if off != len(b) {
		return POI{}, errTrailing(len(b) - off)
	}
	return p, nil
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return max(1, (bits.Len64(x)+6)/7) }

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
	errAtPOIID        = errors.New("model: truncated binary visit at POI id")
	errAtNetworkCode  = errors.New("model: truncated binary visit at network code")
	// errUnknownNetworkCode rejects a keyed payload whose network code is
	// neither in networkCodes nor the escape.
	errUnknownNetworkCode = errors.New("model: unknown network code in binary visit")
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
