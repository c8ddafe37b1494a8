package query

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"modissense/internal/exec"
	"modissense/internal/model"
	"modissense/internal/workload"
)

// sampleAnswer is an n-POI answer over the generated catalog, shaped like
// the benchmark's: a cached hit (zero exec snapshot), or with miss set, a
// scan's answer with its exec counters.
func sampleAnswer(n int, miss bool) *Result {
	rng := rand.New(rand.NewSource(1))
	res := &Result{LatencySeconds: 0.000213, Cached: !miss, POIs: []ScoredPOI{}}
	for _, p := range workload.GenPOIs(rng, n) {
		p.Hotness = rng.Float64()
		p.Interest = 1 + 4*rng.Float64()
		res.POIs = append(res.POIs, ScoredPOI{POI: p, Score: 1 + 4*rng.Float64(), Visits: 1 + rng.Intn(40)})
	}
	if miss {
		res.LatencySeconds = 0.0421
		res.Exec = exec.Snapshot{Tasks: 16, Goroutines: 2, RowsScanned: 3185, BytesMerged: 52371,
			WallSeconds: 0.00187, BlocksDecoded: 41, BlocksSkipped: 9}
	}
	return res
}

// jsonDoc writes a JSON \u escape as ~ (so this file stays plain ASCII).
func jsonDoc(s string) string { return strings.ReplaceAll(s, "~", `\u`) }

// checkEncode requires AppendJSON to produce json.Marshal's bytes, or to
// fail where it fails, and to leave dst's prefix alone.
func checkEncode(t *testing.T, r *Result) {
	t.Helper()
	want, wantErr := json.Marshal(r)
	got, err := r.AppendJSON([]byte("prefix"))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("AppendJSON error %v, json.Marshal error %v, for %+v", err, wantErr, r)
	}
	if err == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("AppendJSON diverged from json.Marshal:\ngot  %s\nwant prefix%s", got, want)
	}
}

// checkDecode requires DecodeJSON to accept exactly what json.Unmarshal
// accepts into a zero Result, and to leave the same value. It reports
// whether the document was accepted.
func checkDecode(t *testing.T, doc []byte) bool {
	t.Helper()
	var got, want Result
	err := got.DecodeJSON(doc)
	wantErr := json.Unmarshal(doc, &want)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("DecodeJSON error %v, json.Unmarshal error %v, on %q", err, wantErr, doc)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeJSON diverged from json.Unmarshal on %q:\ngot  %#v\nwant %#v", doc, got, want)
	}
	return err == nil
}

// specialFloats are the values whose encoding has an edge: zero and its
// sign, the 'f' / 'e' cutoffs on both sides, subnormals, the extremes, and
// the values encoding/json refuses.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.99999e-7, 1e20, 1e21, -1e21, 123456789e13,
	5e-324, 2.2250738585072014e-308, math.MaxFloat64, 0.1, 37.9838, 23.7275,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// fuzzBytes hands out a fuzz input piece by piece (zeros once it runs dry).
type fuzzBytes []byte

func (f *fuzzBytes) take(n int) []byte {
	n = min(n, len(*f))
	out := (*f)[:n]
	*f = (*f)[n:]
	return out
}

func (f *fuzzBytes) byte() byte {
	if b := f.take(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

func (f *fuzzBytes) int64() int64 {
	var raw [8]byte
	copy(raw[:], f.take(int(f.byte()%9)))
	return int64(binary.LittleEndian.Uint64(raw[:]))
}

// float is a special value or raw bits.
func (f *fuzzBytes) float() float64 {
	if c := f.byte(); c%4 == 0 {
		return specialFloats[int(c/4)%len(specialFloats)]
	}
	var raw [8]byte
	copy(raw[:], f.take(8))
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

// string is arbitrary bytes: HTML characters, separators, invalid UTF-8.
func (f *fuzzBytes) string() string { return string(f.take(int(f.byte() % 16))) }

// resultFrom builds a Result out of a fuzz input: every field, nil and
// empty slices, every omitempty field set and unset.
func resultFrom(data []byte) *Result {
	f := fuzzBytes(data)
	flags := f.byte()
	r := &Result{
		LatencySeconds:     f.float(),
		Degraded:           flags&1 != 0,
		Cached:             flags&2 != 0,
		WindowClamped:      flags&4 != 0,
		FailoverInProgress: flags&8 != 0,
	}
	if flags&16 != 0 {
		r.EffectiveFromMillis = f.int64()
	}
	if n := int(f.byte() % 6); n > 0 {
		r.POIs = make([]ScoredPOI, n-1)
	}
	for i := range r.POIs {
		p := &r.POIs[i]
		p.POI.ID = f.int64()
		p.POI.Name = f.string()
		p.POI.Lat, p.POI.Lon = f.float(), f.float()
		if n := int(f.byte() % 5); n > 0 {
			p.POI.Keywords = make([]string, n-1)
		}
		for k := range p.POI.Keywords {
			p.POI.Keywords[k] = f.string()
		}
		p.POI.Hotness, p.POI.Interest = f.float(), f.float()
		p.Score, p.Visits = f.float(), int(f.int64())
	}
	if n := int(f.byte() % 5); n > 0 {
		r.MissingRegions = make([]int, n-1)
	}
	for i := range r.MissingRegions {
		r.MissingRegions[i] = int(f.int64())
	}
	e := &r.Exec
	for _, c := range []*int64{&e.Tasks, &e.Goroutines, &e.RowsScanned, &e.BytesMerged, &e.Retries, &e.Hedges,
		&e.ReplicaReads, &e.Cancels, &e.HedgeCancels, &e.BlocksDecoded, &e.BlocksSkipped} {
		*c = f.int64()
	}
	e.WallSeconds = f.float()
	return r
}

// FuzzResultJSON is the differential test of the answer codec against
// encoding/json. A Result built from the input must encode to json.Marshal's
// bytes (both refuse non-finite floats); the encoding must decode as
// json.Unmarshal decodes it; and the raw input itself must be accepted or
// refused by DecodeJSON exactly when json.Unmarshal accepts or refuses it,
// with DeepEqual values when accepted.
func FuzzResultJSON(f *testing.F) {
	for _, r := range []*Result{sampleAnswer(10, false), sampleAnswer(3, true), {}} {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, c := range decodeEdges {
		f.Add([]byte(jsonDoc(c.doc)))
	}
	f.Add([]byte("\x1f\x00\x05Fish & Chips <Caf\xc3\xa9>\xe2\x80\xa8\xff\x04\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := resultFrom(data)
		checkEncode(t, r)
		if enc, err := json.Marshal(r); err == nil && !checkDecode(t, enc) {
			t.Fatalf("DecodeJSON refused json.Marshal's encoding %s", enc)
		}
		checkDecode(t, data)
	})
}

// decodeEdges are the documents where encoding/json's decoding has a rule
// to mirror; ok is whether json.Unmarshal accepts them.
var decodeEdges = []struct {
	name, doc string
	ok        bool
}{
	{"case-folded keys", `{"POIS":[{"Poi":{"NAME":"a","Keywords":["x"]},"SCORE":2}],"Latency_Seconds":1,"EXEC":{"Rows_Scanned":3}}`, true},
	{"unicode folds (Kelvin sign, long s)", `{"poi~017f":[{"poi":{"~212aeywords":["k"]}}],"exec":{"ta~017fk~017f":4}}`, true},
	{"escaped key", `{"p~006fis":[{"visits":1}]}`, true},
	{"duplicate scalar", `{"latency_seconds":1,"latency_seconds":2,"degraded":true,"degraded":false}`, true},
	{"duplicate list reuses elements", `{"pois":[{"score":1,"visits":2},{"score":3}],"pois":[{"score":4}]}`, true},
	{"stale elements come back", `{"pois":[{"visits":1},{"visits":2},{"visits":3}],"pois":[{"visits":9}],"pois":[null,null,null]}`, true},
	{"stale keywords come back", `{"pois":[{"poi":{"keywords":["a","b","c"]}}],"pois":[{"poi":{"keywords":["x"]}}],"pois":[{"poi":{"keywords":[null,null,null]}}]}`, true},
	{"empty list then longer", `{"pois":[{"visits":1},{"visits":2}],"pois":[],"pois":[null,null]}`, true},
	{"duplicate regions", `{"missing_regions":[1,2,3],"missing_regions":[4],"missing_regions":[]}`, true},
	{"null members", `{"pois":null,"latency_seconds":null,"exec":null,"degraded":null,"cached":null,"missing_regions":null,"effective_from_millis":null}`, true},
	{"null keeps scalars", `{"latency_seconds":2,"latency_seconds":null,"cached":true,"cached":null}`, true},
	{"null keeps objects", `{"pois":[{"poi":{"name":"a","keywords":["k"]}}],"pois":[{"poi":null,"score":null}]}`, true},
	{"null clears slices", `{"pois":[{"poi":{"keywords":["k"]}}],"pois":[{"poi":{"keywords":null}}],"missing_regions":[1],"missing_regions":null}`, true},
	{"null element", `{"pois":[null,{"visits":1}],"missing_regions":[null,2],"pois":[{"poi":{"keywords":[null,"k"]}}]}`, true},
	{"unknown members", `{"x":{"y":[1,{"z":null}],"w":"~00e9"},"pois":[{"poi":{"id":1,"extra":[true,false,-1.5e3,{}]},"more":[]}],"exec":{"new":"v"}}`, true},
	{"json:\"-\" fields are unknown", `{"Work":{"Rows":5},"Regions":3,"-":1}`, true},
	{"bad unknown: trailing comma", `{"x":[1,]}`, false},
	{"bad unknown: key without value", `{"x":{"a"}}`, false},
	{"bad unknown: literal", `{"x":tru}`, false},
	{"bad unknown: escape", `{"x":"\q"}`, false},
	{"bad unknown: raw control byte", "{\"x\":\"a\x01\"}", false},
	{"lone high surrogate", `{"pois":[{"poi":{"name":"a~d800b"}}]}`, true},
	{"lone low surrogate", `{"pois":[{"poi":{"name":"~dc00"}}]}`, true},
	{"high surrogate, then a pair", `{"pois":[{"poi":{"name":"~d800~d800~dc00"}}]}`, true},
	{"surrogate pair", `{"pois":[{"poi":{"name":"~d83d~de00"}}]}`, true},
	{"surrogate before a short escape", `{"pois":[{"poi":{"name":"~d800\n"}}]}`, true},
	{"bad \\u escape", `{"pois":[{"poi":{"name":"~d8"}}]}`, false},
	{"invalid UTF-8", "{\"pois\":[{\"poi\":{\"name\":\"a\xffb\xc3\",\"keywords\":[\"\xed\xa0\x80\"]}}]}", true},
	{"invalid UTF-8 in a key", "{\"po\xffis\":1}", true},
	{"escapes", `{"pois":[{"poi":{"name":"\"\\\/\b\f\n\r\t~0041~00e9~2028"}}]}`, true},
	{"raw control byte", "{\"pois\":[{\"poi\":{\"name\":\"a\tb\"}}]}", false},
	{"visits 1.0", `{"pois":[{"visits":1.0}]}`, false},
	{"visits 1e2", `{"pois":[{"visits":1e2}]}`, false},
	{"visits overflows", `{"pois":[{"visits":99999999999999999999}]}`, false},
	{"visits -0", `{"pois":[{"visits":-0}]}`, true},
	{"id min int64", `{"pois":[{"poi":{"id":-9223372036854775808}}]}`, true},
	{"float overflow", `{"latency_seconds":1e400}`, false},
	{"float underflow", `{"latency_seconds":1e-400,"exec":{"wall_seconds":-5e-324}}`, true},
	{"float forms", `{"latency_seconds":-0.0e+0,"pois":[{"score":1E2,"poi":{"lat":12.5e-3}}]}`, true},
	{"leading zero", `{"latency_seconds":01}`, false},
	{"bare minus", `{"latency_seconds":-}`, false},
	{"trailing point", `{"latency_seconds":1.}`, false},
	{"leading point", `{"latency_seconds":.5}`, false},
	{"plus sign", `{"latency_seconds":+1}`, false},
	{"quoted number", `{"latency_seconds":"1"}`, false},
	{"string for bool", `{"degraded":"true"}`, false},
	{"object for list", `{"pois":{}}`, false},
	{"array for object", `{"exec":[]}`, false},
	{"number for struct", `{"pois":[1]}`, false},
	{"fraction in regions", `{"missing_regions":[1.5]}`, false},
	{"number for keyword", `{"pois":[{"poi":{"keywords":[1]}}]}`, false},
	{"whitespace", " \t\r\n{ \"pois\" : [ { \"visits\" : 1 } ] , \"cached\" : true } \n", true},
	{"top-level null", ` null `, true},
	{"top-level array", `[]`, false},
	{"top-level string", `"x"`, false},
	{"empty", ``, false},
	{"trailing garbage", `{} x`, false},
	{"two values", `{}{}`, false},
	{"unterminated", `{"pois":[`, false},
	{"trailing member comma", `{"cached":true,}`, false},
	{"depth 10000", `{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`, true},
	{"depth 10001", `{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, false},
}

// TestResultJSONCoversEveryField fails when a JSON field is added to one of
// the answer's types but not to the codec, whose key lists follow the
// declaration order.
func TestResultJSONCoversEveryField(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		keys []string
	}{
		{reflect.TypeOf(Result{}), resultKeys},
		{reflect.TypeOf(ScoredPOI{}), scoredKeys},
		{reflect.TypeOf(model.POI{}), poiKeys},
		{reflect.TypeOf(exec.Snapshot{}), snapshotKeys},
	} {
		var names []string
		for i := 0; i < c.typ.NumField(); i++ {
			if name, _, _ := strings.Cut(c.typ.Field(i).Tag.Get("json"), ","); name != "-" {
				names = append(names, name)
			}
		}
		if !reflect.DeepEqual(names, c.keys) {
			t.Errorf("%s has JSON fields %q, the codec knows %q", c.typ, names, c.keys)
		}
	}
}

// TestResultJSONDecodeEdges runs each decoding rule against json.Unmarshal.
func TestResultJSONDecodeEdges(t *testing.T) {
	for _, c := range decodeEdges {
		t.Run(c.name, func(t *testing.T) {
			if ok := checkDecode(t, []byte(jsonDoc(c.doc))); ok != c.ok {
				t.Errorf("accepted = %v, want %v", ok, c.ok)
			}
		})
	}
}

// reshape re-emits a JSON document with every object's members in a random
// order and random whitespace between tokens.
func reshape(t *testing.T, raw json.RawMessage, rng *rand.Rand) []byte {
	t.Helper()
	ws := func() string { return []string{"", " ", "\n\t", "\r\n  "}[rng.Intn(4)] }
	var out []byte
	switch raw[0] {
	case '{':
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		out = append(out, '{')
		for i, k := range keys {
			if i > 0 {
				out = append(out, ',')
			}
			out = append(out, ws()...)
			out = append(out, `"`+k+`"`+ws()+":"+ws()...)
			out = append(out, reshape(t, m[k], rng)...)
		}
		out = append(out, ws()+"}"...)
	case '[':
		var a []json.RawMessage
		if err := json.Unmarshal(raw, &a); err != nil {
			t.Fatal(err)
		}
		out = append(out, '[')
		for i, e := range a {
			if i > 0 {
				out = append(out, ","+ws()...)
			}
			out = append(out, reshape(t, e, rng)...)
		}
		out = append(out, ws()+"]"...)
	default:
		out = append(out, raw...)
	}
	return out
}

// TestResultJSONRealisticAnswers encodes the answer shapes the server
// sends and decodes them back re-spaced and with their members shuffled.
func TestResultJSONRealisticAnswers(t *testing.T) {
	degraded := sampleAnswer(4, true)
	degraded.Degraded, degraded.MissingRegions = true, []int{3, 11}
	clamped := sampleAnswer(2, false)
	clamped.Cached, clamped.WindowClamped, clamped.EffectiveFromMillis = false, true, 1433116800000
	failover := sampleAnswer(1, true)
	failover.FailoverInProgress = true
	html := sampleAnswer(1, false)
	html.POIs[0].POI.Name = "Fish & Chips <Caf\u00e9>"
	html.POIs[0].POI.Keywords = append(html.POIs[0].POI.Keywords, "line"+string(rune(0x2028))+"break", "tab\tquote\"")
	rng := rand.New(rand.NewSource(7))
	for _, r := range []*Result{sampleAnswer(10, false), sampleAnswer(10, true), sampleAnswer(0, true),
		{}, degraded, clamped, failover, html} {
		checkEncode(t, r)
		enc, err := r.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		var back Result
		if err := back.DecodeJSON(enc); err != nil {
			t.Fatal(err)
		}
		r.Work, r.Regions = back.Work, back.Regions
		if !reflect.DeepEqual(&back, r) {
			t.Fatalf("round trip changed the answer:\ngot  %+v\nwant %+v", &back, r)
		}
		for i := 0; i < 5; i++ {
			checkDecode(t, reshape(t, enc, rng))
		}
	}
}

// TestResultJSONNonFinite pins the encoder's refusal of what encoding/json
// cannot represent, wherever the float sits.
func TestResultJSONNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, set := range []func(*Result){
			func(r *Result) { r.LatencySeconds = bad },
			func(r *Result) { r.POIs[0].Score = bad },
			func(r *Result) { r.POIs[1].POI.Lon = bad },
			func(r *Result) { r.Exec.WallSeconds = bad },
		} {
			r := sampleAnswer(2, true)
			set(r)
			out, err := r.AppendJSON([]byte("kept"))
			var unsupported *json.UnsupportedValueError
			if !errors.As(err, &unsupported) || string(out) != "kept" {
				t.Fatalf("AppendJSON of %v = %q, %v; want dst back and a *json.UnsupportedValueError", bad, out, err)
			}
			checkEncode(t, r)
		}
	}
}

// TestResultJSONDoesNotAliasInput scribbles over the decoded buffer: the
// answer must not change.
func TestResultJSONDoesNotAliasInput(t *testing.T) {
	answer, err := sampleAnswer(10, true).AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	escaped := []byte(jsonDoc(`{"pois":[{"poi":{"name":"~00e9x","keywords":["k~0041"]}}]}`))
	for _, in := range [][]byte{answer, escaped} {
		var got, want Result
		if err := json.Unmarshal(in, &want); err != nil {
			t.Fatal(err)
		}
		if err := got.DecodeJSON(in); err != nil {
			t.Fatal(err)
		}
		for i := range in {
			in[i] = 'X'
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded answer changed with its input buffer:\ngot  %+v\nwant %+v", got, want)
		}
	}
}

// decodeAllocs is what DecodeJSON allocates for the 10-POI answer: the
// document's one string copy, the POI list and the keyword arena.
const decodeAllocs = 3

// TestResultJSONAllocs pins the codec's allocations: none to encode into a
// buffer with room, a constant few to decode.
func TestResultJSONAllocs(t *testing.T) {
	res := sampleAnswer(10, false)
	buf := make([]byte, 0, 8<<10)
	if n := testing.AllocsPerRun(100, func() { buf, _ = res.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("AppendJSON allocates %v times, want 0", n)
	}
	data := append([]byte(nil), buf...)
	var out Result
	if n := testing.AllocsPerRun(100, func() {
		out = Result{}
		if err := out.DecodeJSON(data); err != nil {
			t.Fatal(err)
		}
	}); n != decodeAllocs {
		t.Errorf("DecodeJSON allocates %v times, want %d", n, decodeAllocs)
	}
}

// BenchmarkResultJSON compares the hand codec with encoding/json on the
// 10-POI cached answer of the search_social workload.
func BenchmarkResultJSON(b *testing.B) {
	res := sampleAnswer(10, false)
	data, err := json.Marshal(res)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		buf := make([]byte, 0, 2*len(data))
		for i := 0; i < b.N; i++ {
			buf, _ = res.AppendJSON(buf[:0])
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var out Result
			if err := out.DecodeJSON(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json_marshal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json_unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var out Result
			if err := json.Unmarshal(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
