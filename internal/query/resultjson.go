package query

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"modissense/internal/exec"
	"modissense/internal/model"
)

// The wire form of an answer. Search and trending answers are the
// interactive tier's whole output, and on a cached search encoding/json's
// reflective encode (server) and decode (typed client) cost more than the
// query. AppendJSON and DecodeJSON are one hand-written codec for both ends.
// They mirror encoding/json exactly rather than define a format of their own:
// AppendJSON produces json.Marshal's bytes, and DecodeJSON accepts exactly
// the documents json.Unmarshal accepts and leaves the same value behind.
// json.Marshal / json.Unmarshal stay the reference (FuzzResultJSON holds the
// two to it). That is why the methods are not MarshalJSON / UnmarshalJSON:
// encoding/json re-scans a Marshaler's output and pre-scans an
// Unmarshaler's input, which would cost about what the reflection did, and
// would leave the tests no independent reference to compare against.

// AppendJSON appends the JSON encoding of r to dst — byte for byte what
// json.Marshal(r) returns — and returns the extended buffer. A NaN or
// infinite float is a *json.UnsupportedValueError, as it is for json.Marshal;
// dst is then returned unextended.
func (r *Result) AppendJSON(dst []byte) ([]byte, error) {
	w := jsonWriter{b: dst}
	w.raw(`{"pois":`)
	if r.POIs == nil {
		w.raw("null")
	} else {
		w.raw("[")
		for i := range r.POIs {
			if i > 0 {
				w.raw(",")
			}
			w.scored(&r.POIs[i])
		}
		w.raw("]")
	}
	w.raw(`,"latency_seconds":`)
	w.float(r.LatencySeconds)
	w.raw(`,"exec":`)
	w.snapshot(&r.Exec)
	w.raw(`,"degraded":`)
	w.bool(r.Degraded)
	if r.Cached {
		w.raw(`,"cached":true`)
	}
	if len(r.MissingRegions) > 0 {
		w.raw(`,"missing_regions":[`)
		for i, id := range r.MissingRegions {
			if i > 0 {
				w.raw(",")
			}
			w.int(int64(id))
		}
		w.raw("]")
	}
	if r.WindowClamped {
		w.raw(`,"window_clamped":true`)
	}
	if r.FailoverInProgress {
		w.raw(`,"failover_in_progress":true`)
	}
	if r.EffectiveFromMillis != 0 {
		w.raw(`,"effective_from_millis":`)
		w.int(r.EffectiveFromMillis)
	}
	w.raw("}")
	if w.err != nil {
		return dst, w.err
	}
	return w.b, nil
}

// jsonWriter appends JSON; err holds the first unencodable float.
type jsonWriter struct {
	b   []byte
	err error
}

func (w *jsonWriter) raw(s string) { w.b = append(w.b, s...) }

func (w *jsonWriter) int(v int64) { w.b = strconv.AppendInt(w.b, v, 10) }

func (w *jsonWriter) bool(v bool) {
	if v {
		w.raw("true")
	} else {
		w.raw("false")
	}
}

// float writes f the way encoding/json does: like ES6's number-to-string,
// 'f' unless |f| is below 1e-6 or at least 1e21, with e-07 cleaned to e-7.
func (w *jsonWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	w.b = b
}

// htmlSafe marks the ASCII bytes encoding/json writes unescaped: printable,
// and neither a quote, a backslash nor one of <, >, & (escaped so that an
// answer can be embedded in HTML).
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// string writes s quoted and escaped as encoding/json does: the short
// escapes, other control bytes and the HTML-unsafe ones as \u00XX, each
// invalid UTF-8 byte as the escaped U+FFFD, and U+2028 / U+2029 escaped.
func (w *jsonWriter) string(s string) {
	b := append(w.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029: // LINE and PARAGRAPH SEPARATOR
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	w.b = append(b, '"')
}

func (w *jsonWriter) scored(sp *ScoredPOI) {
	p := &sp.POI
	w.raw(`{"poi":{"id":`)
	w.int(p.ID)
	w.raw(`,"name":`)
	w.string(p.Name)
	w.raw(`,"lat":`)
	w.float(p.Lat)
	w.raw(`,"lon":`)
	w.float(p.Lon)
	w.raw(`,"keywords":`)
	if p.Keywords == nil {
		w.raw("null")
	} else {
		w.raw("[")
		for i, k := range p.Keywords {
			if i > 0 {
				w.raw(",")
			}
			w.string(k)
		}
		w.raw("]")
	}
	w.raw(`,"hotness":`)
	w.float(p.Hotness)
	w.raw(`,"interest":`)
	w.float(p.Interest)
	w.raw(`},"score":`)
	w.float(sp.Score)
	w.raw(`,"visits":`)
	w.int(int64(sp.Visits))
	w.raw("}")
}

func (w *jsonWriter) snapshot(s *exec.Snapshot) {
	w.raw(`{"tasks":`)
	w.int(s.Tasks)
	w.raw(`,"goroutines":`)
	w.int(s.Goroutines)
	w.raw(`,"rows_scanned":`)
	w.int(s.RowsScanned)
	w.raw(`,"bytes_merged":`)
	w.int(s.BytesMerged)
	w.raw(`,"wall_seconds":`)
	w.float(s.WallSeconds)
	w.raw(`,"retries":`)
	w.int(s.Retries)
	w.raw(`,"hedges":`)
	w.int(s.Hedges)
	w.raw(`,"replica_reads":`)
	w.int(s.ReplicaReads)
	w.raw(`,"cancels":`)
	w.int(s.Cancels)
	w.raw(`,"hedge_cancels":`)
	w.int(s.HedgeCancels)
	w.raw(`,"blocks_decoded":`)
	w.int(s.BlocksDecoded)
	w.raw(`,"blocks_skipped":`)
	w.int(s.BlocksSkipped)
	w.raw("}")
}

// DecodeJSON decodes a JSON answer into r in one pass, without reflection:
// it accepts exactly the documents json.Unmarshal(data, r) accepts and leaves
// r as json.Unmarshal would (for a zero r: a reflect.DeepEqual value). So it
// matches object keys exactly, then case-insensitively; validates and skips
// unknown members; lets null leave strings, numbers, bools and objects alone
// and set slices to nil; decodes a repeated member into what is already
// there (slice elements reused, then the slice truncated; [] is an empty,
// non-nil slice); turns invalid UTF-8 and lone surrogates into U+FFFD; parses
// numbers with strconv (a fraction or exponent in an integer field is an
// error, as is any overflow); refuses nesting deeper than 10 000; and refuses
// anything but whitespace after the value.
//
// The decoded strings never alias data: the whole document is copied into
// one string whose substrings back every string that needed no unescaping,
// so the caller may reuse data as soon as DecodeJSON returns.
func (r *Result) DecodeJSON(data []byte) error {
	d := decoder{s: string(data)}
	d.space()
	err := d.result(r)
	if err == nil {
		d.space()
		if d.i < len(d.s) {
			err = d.syntax("after top-level value")
		}
	}
	return err
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// poisHint is the capacity a fresh POI list starts with: the API's default
// limit, so a default answer decodes into one allocation.
const poisHint = 10

// decoder is one DecodeJSON pass over s. Every value method starts at the
// value's first byte (whitespace already skipped) and returns after its
// last.
type decoder struct {
	s     string
	i     int
	depth int
	// kw is the arena fresh keyword lists are carved from (full slice
	// expressions, so a caller's append never reaches a neighbour).
	kw []string
}

func (d *decoder) syntax(context string) error {
	if d.i >= len(d.s) {
		return fmt.Errorf("query: invalid JSON answer: unexpected end of input")
	}
	return fmt.Errorf("query: invalid JSON answer: character %q at offset %d %s", d.s[d.i], d.i, context)
}

// mismatch reports a value of the wrong kind for its field — what
// json.Unmarshal reports as an *json.UnmarshalTypeError.
func (d *decoder) mismatch(want string) error {
	return fmt.Errorf("query: invalid JSON answer: offset %d: cannot decode into %s", d.i, want)
}

func (d *decoder) peek() byte {
	if d.i < len(d.s) {
		return d.s[d.i]
	}
	return 0
}

func (d *decoder) space() {
	for d.i < len(d.s) {
		switch d.s[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// open consumes the '{' or '[' at d.i, one level deeper.
func (d *decoder) open() error {
	if d.depth++; d.depth > maxDepth {
		return d.syntax("exceeds the maximum nesting depth")
	}
	d.i++
	d.space()
	return nil
}

func (d *decoder) literal(word string) error {
	if !strings.HasPrefix(d.s[d.i:], word) {
		return d.syntax("in literal " + word)
	}
	d.i += len(word)
	return nil
}

// object decodes the object at d.i, handing each member's key to member
// with d.i at the member's value.
func (d *decoder) object(member func(key string) error) error {
	if err := d.open(); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.i++
		d.depth--
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.i++
			d.space()
		case '}':
			d.i++
			d.depth--
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// key consumes an object key and its colon, up to the member's value.
func (d *decoder) key() (string, error) {
	if d.peek() != '"' {
		return "", d.syntax("looking for beginning of object key string")
	}
	key, err := d.str()
	if err != nil {
		return "", err
	}
	d.space()
	if d.peek() != ':' {
		return "", d.syntax("after object key")
	}
	d.i++
	d.space()
	return key, nil
}

// array decodes the array at d.i, calling elem with d.i at each element,
// and returns the element count.
func (d *decoder) array(elem func(i int) error) (int, error) {
	if err := d.open(); err != nil {
		return 0, err
	}
	if d.peek() == ']' {
		d.i++
		d.depth--
		return 0, nil
	}
	for n := 0; ; {
		if err := elem(n); err != nil {
			return n, err
		}
		n++
		d.space()
		switch d.peek() {
		case ',':
			d.i++
			d.space()
		case ']':
			d.i++
			d.depth--
			return n, nil
		default:
			return n, d.syntax("after array element")
		}
	}
}

// slot makes element i of s addressable the way encoding/json does when it
// decodes into a slice: elements already there are reused (i < len), spare
// capacity is re-exposed as it is, and only a full slice grows.
func slot[T any](s []T, i int) []T {
	switch {
	case i < len(s):
		return s
	case i < cap(s):
		return s[:i+1]
	}
	var zero T
	return append(s, zero)
}

// truncate ends a slice decode of n elements: an empty array is a fresh
// empty slice, anything else drops what a longer earlier decode left.
func truncate[T any](s []T, n int) []T {
	if n == 0 {
		return []T{}
	}
	return s[:n]
}

func (d *decoder) result(r *Result) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
		return d.object(func(key string) error { return d.resultMember(r, key) })
	}
	return d.mismatch("query.Result")
}

var resultKeys = []string{"pois", "latency_seconds", "exec", "degraded", "cached",
	"missing_regions", "window_clamped", "failover_in_progress", "effective_from_millis"}

func (d *decoder) resultMember(r *Result, key string) error {
	switch key {
	case "pois":
		return d.pois(r)
	case "latency_seconds":
		return d.float(&r.LatencySeconds)
	case "exec":
		return d.snapshot(&r.Exec)
	case "degraded":
		return d.bool(&r.Degraded)
	case "cached":
		return d.bool(&r.Cached)
	case "missing_regions":
		return d.ints(&r.MissingRegions)
	case "window_clamped":
		return d.bool(&r.WindowClamped)
	case "failover_in_progress":
		return d.bool(&r.FailoverInProgress)
	case "effective_from_millis":
		return d.int64(&r.EffectiveFromMillis)
	}
	if k := foldKey(key, resultKeys); k != "" {
		return d.resultMember(r, k)
	}
	return d.skip()
}

// foldKey returns the field name key matches case-insensitively ("" for
// none): encoding/json's fallback after an exact match fails.
func foldKey(key string, names []string) string {
	for _, n := range names {
		if strings.EqualFold(key, n) {
			return n
		}
	}
	return ""
}

func (d *decoder) pois(r *Result) error {
	switch d.peek() {
	case 'n':
		r.POIs = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("[]query.ScoredPOI")
	}
	s := r.POIs
	n, err := d.array(func(i int) error {
		if cap(s) == 0 {
			s = make([]ScoredPOI, 0, poisHint)
		}
		s = slot(s, i)
		return d.scored(&s[i])
	})
	if err != nil {
		return err
	}
	r.POIs = truncate(s, n)
	return nil
}

var scoredKeys = []string{"poi", "score", "visits"}

func (d *decoder) scored(sp *ScoredPOI) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
		return d.object(func(key string) error { return d.scoredMember(sp, key) })
	}
	return d.mismatch("query.ScoredPOI")
}

func (d *decoder) scoredMember(sp *ScoredPOI, key string) error {
	switch key {
	case "poi":
		return d.poi(&sp.POI)
	case "score":
		return d.float(&sp.Score)
	case "visits":
		return d.int(&sp.Visits)
	}
	if k := foldKey(key, scoredKeys); k != "" {
		return d.scoredMember(sp, k)
	}
	return d.skip()
}

var poiKeys = []string{"id", "name", "lat", "lon", "keywords", "hotness", "interest"}

func (d *decoder) poi(p *model.POI) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
		return d.object(func(key string) error { return d.poiMember(p, key) })
	}
	return d.mismatch("model.POI")
}

func (d *decoder) poiMember(p *model.POI, key string) error {
	switch key {
	case "id":
		return d.int64(&p.ID)
	case "name":
		return d.string(&p.Name)
	case "lat":
		return d.float(&p.Lat)
	case "lon":
		return d.float(&p.Lon)
	case "keywords":
		return d.keywords(&p.Keywords)
	case "hotness":
		return d.float(&p.Hotness)
	case "interest":
		return d.float(&p.Interest)
	}
	if k := foldKey(key, poiKeys); k != "" {
		return d.poiMember(p, k)
	}
	return d.skip()
}

// keywords decodes a string list. A list decoded into nothing (the common
// case) is carved from the decoder's arena rather than given a slice of its
// own.
func (d *decoder) keywords(p *[]string) error {
	switch d.peek() {
	case 'n':
		*p = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("[]string")
	}
	if s := *p; cap(s) > 0 {
		n, err := d.array(func(i int) error {
			s = slot(s, i)
			return d.string(&s[i])
		})
		if err != nil {
			return err
		}
		*p = truncate(s, n)
		return nil
	}
	start := len(d.kw)
	n, err := d.array(func(int) error {
		if cap(d.kw) == 0 {
			d.kw = make([]string, 0, 4*poisHint)
		}
		d.kw = append(d.kw, "")
		return d.string(&d.kw[len(d.kw)-1])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		*p = []string{}
	} else {
		*p = d.kw[start:len(d.kw):len(d.kw)]
	}
	return nil
}

func (d *decoder) ints(p *[]int) error {
	switch d.peek() {
	case 'n':
		*p = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("[]int")
	}
	s := *p
	n, err := d.array(func(i int) error {
		s = slot(s, i)
		return d.int(&s[i])
	})
	if err != nil {
		return err
	}
	*p = truncate(s, n)
	return nil
}

var snapshotKeys = []string{"tasks", "goroutines", "rows_scanned", "bytes_merged", "wall_seconds",
	"retries", "hedges", "replica_reads", "cancels", "hedge_cancels", "blocks_decoded", "blocks_skipped"}

func (d *decoder) snapshot(s *exec.Snapshot) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
		return d.object(func(key string) error { return d.snapshotMember(s, key) })
	}
	return d.mismatch("exec.Snapshot")
}

func (d *decoder) snapshotMember(s *exec.Snapshot, key string) error {
	switch key {
	case "tasks":
		return d.int64(&s.Tasks)
	case "goroutines":
		return d.int64(&s.Goroutines)
	case "rows_scanned":
		return d.int64(&s.RowsScanned)
	case "bytes_merged":
		return d.int64(&s.BytesMerged)
	case "wall_seconds":
		return d.float(&s.WallSeconds)
	case "retries":
		return d.int64(&s.Retries)
	case "hedges":
		return d.int64(&s.Hedges)
	case "replica_reads":
		return d.int64(&s.ReplicaReads)
	case "cancels":
		return d.int64(&s.Cancels)
	case "hedge_cancels":
		return d.int64(&s.HedgeCancels)
	case "blocks_decoded":
		return d.int64(&s.BlocksDecoded)
	case "blocks_skipped":
		return d.int64(&s.BlocksSkipped)
	}
	if k := foldKey(key, snapshotKeys); k != "" {
		return d.snapshotMember(s, k)
	}
	return d.skip()
}

func (d *decoder) bool(p *bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	}
	return d.mismatch("bool")
}

func (d *decoder) string(p *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		s, err := d.str()
		*p = s
		return err
	}
	return d.mismatch("string")
}

// numberLiteral returns the number literal at d.i for a numeric field; ok
// is false when the value is null (or an error).
func (d *decoder) numberLiteral(want string) (lit string, ok bool, err error) {
	switch c := d.peek(); {
	case c == 'n':
		return "", false, d.literal("null")
	case c == '-' || isDigit(c):
		lit, err := d.number()
		return lit, err == nil, err
	}
	return "", false, d.mismatch(want)
}

func (d *decoder) float(p *float64) error {
	lit, ok, err := d.numberLiteral("float64")
	if !ok {
		return err
	}
	v, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return d.mismatch("float64: " + lit)
	}
	*p = v
	return nil
}

func (d *decoder) int64(p *int64) error {
	lit, ok, err := d.numberLiteral("int64")
	if !ok {
		return err
	}
	v, err := strconv.ParseInt(lit, 10, 64)
	if err != nil {
		return d.mismatch("int64: " + lit)
	}
	*p = v
	return nil
}

func (d *decoder) int(p *int) error {
	lit, ok, err := d.numberLiteral("int")
	if !ok {
		return err
	}
	v, err := strconv.ParseInt(lit, 10, strconv.IntSize)
	if err != nil {
		return d.mismatch("int: " + lit)
	}
	*p = int(v)
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number consumes a number literal, validated against the JSON grammar
// (strconv alone is more lenient), and returns it.
func (d *decoder) number() (string, error) {
	s, start := d.s, d.i
	i := start
	digits := func() bool {
		if i >= len(s) || !isDigit(s[i]) {
			return false
		}
		for i < len(s) && isDigit(s[i]) {
			i++
		}
		return true
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	if i < len(s) && s[i] == '0' {
		i++
	} else if !digits() {
		d.i = i
		return "", d.syntax("in numeric literal")
	}
	if i < len(s) && s[i] == '.' {
		if i++; !digits() {
			d.i = i
			return "", d.syntax("after decimal point in numeric literal")
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		if i++; i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			d.i = i
			return "", d.syntax("in exponent of numeric literal")
		}
	}
	d.i = i
	return s[start:i], nil
}

// str consumes a string literal and returns its value: a substring of the
// document when it holds no escape and only valid UTF-8, else a decoded copy.
func (d *decoder) str() (string, error) {
	start := d.i + 1
	for i := start; i < len(d.s); {
		c := d.s[i]
		switch {
		case c == '"':
			d.i = i + 1
			return d.s[start:i], nil
		case c == '\\' || c < ' ':
			return d.unquote(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRuneInString(d.s[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start, i)
			}
			i += size
		}
	}
	d.i = len(d.s)
	return "", d.syntax("in string literal")
}

// unquote finishes a string literal that needs decoding from i on (the
// bytes from start to i are plain), as encoding/json's unquote does.
func (d *decoder) unquote(start, i int) (string, error) {
	s := d.s
	b := []byte(s[start:i])
	for i < len(s) {
		switch c := s[i]; {
		case c == '"':
			d.i = i + 1
			return string(b), nil
		case c == '\\':
			if i+1 >= len(s) {
				d.i = len(s)
				return "", d.syntax("in string escape code")
			}
			switch e := s[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(s, i+2)
				if r < 0 {
					d.i = i + 1
					return "", d.syntax("in \\u hexadecimal character escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A valid pair takes the next escape along; anything
					// else stands as U+FFFD and leaves that escape to the
					// next round.
					r2 := rune(-1)
					if i+1 < len(s) && s[i] == '\\' && s[i+1] == 'u' {
						r2 = hex4(s, i+2)
					}
					if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
						r = dec
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.i = i + 1
				return "", d.syntax("in string escape code")
			}
			i += 2
		case c < ' ':
			d.i = i
			return "", d.syntax("in string literal")
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.i = len(s)
	return "", d.syntax("in string literal")
}

// hex4 decodes the four hex digits at s[i:], or returns -1.
func hex4(s string, i int) rune {
	if i+4 > len(s) {
		return -1
	}
	var r rune
	for _, c := range []byte(s[i : i+4]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// skip consumes one value of any shape (an unknown member), validating it
// as strictly as the rest of the document, nesting limit included.
func (d *decoder) skip() error {
	var buf [16]byte
	closers := buf[:0] // of the containers entered, innermost last
	for {
		switch c := d.peek(); {
		case c == '{' || c == '[':
			if err := d.open(); err != nil {
				return err
			}
			closer := byte(']')
			if c == '{' {
				closer = '}'
			}
			if d.peek() == closer {
				d.i++
				d.depth--
				break
			}
			closers = append(closers, closer)
			if c == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			if _, err := d.str(); err != nil {
				return err
			}
		case c == 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		case c == '-' || isDigit(c):
			if _, err := d.number(); err != nil {
				return err
			}
		default:
			return d.syntax("looking for beginning of value")
		}
		// A value ended: close the containers it ended, or move on to the
		// next element or member.
		for {
			if len(closers) == 0 {
				return nil
			}
			d.space()
			closer := closers[len(closers)-1]
			if d.peek() == closer {
				d.i++
				d.depth--
				closers = closers[:len(closers)-1]
				continue
			}
			if d.peek() != ',' {
				return d.syntax("after object key:value pair or array element")
			}
			d.i++
			d.space()
			if closer == '}' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			break
		}
	}
}
