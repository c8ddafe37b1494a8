package model

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary visit codec. The Visits repository is the platform's hottest read
// path: every personalized query decodes one payload per scanned visit row,
// and the replicated schema embeds a full POI document in each. JSON
// decoding pays reflection and field-name matching per row; this codec is a
// flat, length-prefixed binary layout with a leading tag byte. It is the only
// visit format: every writer has emitted it since before the durable log
// existed, so no log holds a JSON visit, and readers treat a payload without
// a known tag as corrupt. The tag byte stays reserved — a new layout takes a
// new tag, never '{', so a JSON document can never pass for one.
//
// Layout: tag byte, version byte, then fields in declaration order.
// Integers are varints, floats are 8-byte little-endian IEEE 754 bits,
// strings are uvarint length prefixes followed by raw bytes.

const (
	// VisitBinaryTagReplicated marks a full replicated-schema visit payload
	// (embedded POI document).
	VisitBinaryTagReplicated byte = 0x01
	// VisitBinaryTagNormalized marks a compact normalized-schema payload
	// (POI id only; the reader joins the rest).
	VisitBinaryTagNormalized byte = 0x02
	// visitBinaryVersion is the current layout version. Decoders reject
	// versions they do not know instead of misreading them.
	visitBinaryVersion byte = 1
)

// EncodeVisitBinary encodes a replicated-schema visit: the full struct
// including the embedded POI document.
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
// POI field but POIID at its zero value.
type VisitView struct {
	UserID int64
	// Time is the visit timestamp in milliseconds since epoch.
	Time  int64
	Grade float64
	POIID int64
	Lat   float64
	Lon   float64
	// Hotness and Interest are the replicated POI metrics.
	Hotness  float64
	Interest float64

	network []byte
	name    []byte
	// keywords is the encoded keyword span: nKeywords length-prefixed
	// strings, every length already checked against the span.
	keywords  []byte
	nKeywords int
}

// Parse points the view at a binary visit payload of either layout,
// dispatching on the tag byte. It is the codec's only parser —
// DecodeVisitBinary materializes its result — and rejects an unknown version
// or tag, any length or count that overruns the payload, and trailing bytes.
// A view whose Parse failed holds no usable state.
func (v *VisitView) Parse(b []byte) error {
	if len(b) < 2 {
		return fmt.Errorf("model: binary visit too short (%d bytes)", len(b))
	}
	tag, version := b[0], b[1]
	if version != visitBinaryVersion {
		return fmt.Errorf("model: binary visit version %d not supported (tag 0x%02x)", version, tag)
	}
	d := binReader{b: b[2:]}
	*v = VisitView{}
	v.UserID = d.varint()
	v.Time = d.varint()
	v.Grade = d.float()
	v.network = d.bytes()
	v.POIID = d.varint()
	switch tag {
	case VisitBinaryTagReplicated:
		v.name = d.bytes()
		v.Lat = d.float()
		v.Lon = d.float()
		// Every keyword takes at least its length byte, so a count beyond
		// the remaining bytes is corrupt whatever follows.
		if n := d.uvarint(); n > uint64(len(d.b)) {
			d.fail("keyword count")
		} else {
			span := d.b
			for i := uint64(0); i < n; i++ {
				d.bytes()
			}
			v.keywords, v.nKeywords = span[:len(span)-len(d.b)], int(n)
		}
		v.Hotness = d.float()
		v.Interest = d.float()
	case VisitBinaryTagNormalized:
	default:
		return fmt.Errorf("model: unknown binary visit tag 0x%02x", tag)
	}
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("model: %d trailing bytes in binary visit", len(d.b))
	}
	return nil
}

// nextString splits the first length-prefixed string off a span Parse has
// already validated.
func nextString(span []byte) (s, rest []byte) {
	n, w := binary.Uvarint(span)
	end := w + int(n)
	return span[w:end], span[end:]
}

// HasKeyword reports whether kw is one of the visit's POI keywords,
// comparing bytes in place.
func (v *VisitView) HasKeyword(kw string) bool {
	for rest := v.keywords; len(rest) > 0; {
		var k []byte
		if k, rest = nextString(rest); string(k) == kw {
			return true
		}
	}
	return false
}

// POI materializes the POI document the payload carries: the full record
// under the replicated layout, the id alone under the normalized one.
func (v *VisitView) POI() POI {
	p := POI{ID: v.POIID, Name: string(v.name), Lat: v.Lat, Lon: v.Lon, Hotness: v.Hotness, Interest: v.Interest}
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

// Visit materializes the whole visit.
func (v *VisitView) Visit() Visit {
	return Visit{UserID: v.UserID, Time: v.Time, Grade: v.Grade, Network: string(v.network), POI: v.POI()}
}

// DecodeVisitBinary decodes either binary visit layout. Normalized payloads
// yield a Visit whose POI carries only the id.
func DecodeVisitBinary(b []byte) (Visit, error) {
	var view VisitView
	if err := view.Parse(b); err != nil {
		return Visit{}, err
	}
	return view.Visit(), nil
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// binReader consumes the field stream, latching the first error so the
// decode body reads linearly without per-field checks.
type binReader struct {
	b   []byte
	err error
}

func (d *binReader) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("model: truncated binary visit at %s", what)
	}
	d.b = nil
}

func (d *binReader) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *binReader) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *binReader) float() float64 {
	if len(d.b) < 8 {
		d.fail("float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// bytes consumes one length-prefixed string and returns it as a sub-slice
// of the payload.
func (d *binReader) bytes() []byte {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)) {
		d.fail("string")
		return nil
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}
