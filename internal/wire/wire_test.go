package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
	"unsafe"
)

// The hand codecs of the search and check-in bodies against encoding/json:
// AppendJSON against json.Marshal, DecodeJSON against json.Decoder with
// DisallowUnknownFields, and each against the other. (internal/core's
// FuzzRequestJSON holds the server's route decode, fallback included, to the
// same reference; the client's tests hold the bytes it sends.)

// codec is a body with both hand codecs.
type codec interface {
	AppendJSON(dst []byte) ([]byte, error)
	DecodeJSON(body []byte) error
}

// decodeRef is the reference decode.
func decodeRef(doc []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checkDecode requires DecodeJSON to accept exactly what the reference
// accepts into a zero T, and to leave the same value, which it returns.
func checkDecode[T any, P interface {
	*T
	codec
}](t *testing.T, doc []byte) T {
	t.Helper()
	var got, want T
	err := P(&got).DecodeJSON(doc)
	wantErr := decodeRef(doc, &want)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%T: DecodeJSON error %v, reference error %v, on %q", got, err, wantErr, doc)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: DecodeJSON diverged from the reference on %q:\ngot  %#v\nwant %#v", got, doc, got, want)
	}
	return got
}

// checkBody requires AppendJSON to append json.Marshal's bytes after a
// prefix it leaves alone, or to fail with json.Marshal's error, and what it
// appends to decode back: as the reference decodes it, and to x itself when
// x's strings are valid UTF-8 (json.Marshal replaces invalid bytes).
func checkBody[T any, P interface {
	*T
	codec
}](t *testing.T, x P, validUTF8 bool) {
	t.Helper()
	want, wantErr := json.Marshal(x)
	got, err := x.AppendJSON([]byte("prefix"))
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%T: AppendJSON error %v, json.Marshal error %v, for %+v", x, err, wantErr, x)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("%T: AppendJSON diverged from json.Marshal:\ngot  %s\nwant prefix%s", x, got, want)
	}
	if back := checkDecode[T, P](t, want); validUTF8 && !reflect.DeepEqual(&back, x) {
		t.Fatalf("%T: %s decoded back to %+v, want %+v", x, want, back, x)
	}
}

// reqBytes hands out a fuzz input piece by piece (zeros once it runs dry).
type reqBytes []byte

func (f *reqBytes) take(n int) []byte {
	n = min(n, len(*f))
	out := (*f)[:n]
	*f = (*f)[n:]
	return out
}

func (f *reqBytes) byte() byte {
	if b := f.take(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

func (f *reqBytes) int64() int64 {
	var raw [8]byte
	copy(raw[:], f.take(int(f.byte()%9)))
	return int64(binary.LittleEndian.Uint64(raw[:]))
}

func (f *reqBytes) float() float64 {
	var raw [8]byte
	copy(raw[:], f.take(int(f.byte()%9)))
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

func (f *reqBytes) string() string { return string(f.take(int(f.byte() % 16))) }

// count returns a list length from the input: -1 for a nil list, else 0–4.
func (f *reqBytes) count() int { return int(f.byte()%6) - 1 }

// benchBodies returns bodies shaped like the repository benchmark's: a
// search over 30 friends with a box, a keyword and an open-ended window, and
// one user's push of 50 check-ins with grade and network.
func benchBodies() (*SearchRequest, *CheckinsRequest) {
	rng := rand.New(rand.NewSource(1))
	const token = "3f9a1c0e5b7d2a4c6e8f0a1b3c5d7e9f"
	s := &SearchRequest{Token: token, MinLat: 37.9, MinLon: 23.6, MaxLat: 38.1, MaxLon: 23.9, Keyword: "food",
		From: "2015-05-01T00:00:00Z", OrderBy: "interest", Limit: 10}
	for i := 0; i < 30; i++ {
		s.Friends = append(s.Friends, 1+rng.Int63n(20000))
	}
	c := &CheckinsRequest{Token: token}
	for i := 0; i < 50; i++ {
		c.Checkins = append(c.Checkins, Checkin{POIID: 1 + rng.Int63n(800), Time: 1433116800000 + int64(i)*60000,
			Grade: float64(1 + rng.Intn(5)), Network: "foursquare"})
	}
	return s, c
}

// addSeeds adds the benchmark-shaped body and two inputs that build values
// with every field set, one of them with escapes and invalid UTF-8.
func addSeeds(f *testing.F, body any) {
	doc, err := json.Marshal(body)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc)
	f.Add([]byte("\x05token\x08\x40\x43\x00\x00\x00\x00\x00\x00\x04food\x03\x01\x02\x03"))
	f.Add([]byte("\x1f\x00\x05Fish & Chips <Caf\xc3\xa9>\xe2\x80\xa8\xff\x04\x00"))
}

// FuzzSearchRequest holds the search body's codecs to encoding/json: the
// raw input must be decoded as the reference decodes it, and a body built
// from the input — every field, nil and empty lists, omitted members, any
// float (NaN and the infinities included) and any string bytes — must be
// appended as json.Marshal writes it and decode back to itself.
func FuzzSearchRequest(f *testing.F) {
	s, _ := benchBodies()
	addSeeds(f, s)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode[SearchRequest](t, data)
		in := reqBytes(data)
		s := &SearchRequest{Token: in.string(), MinLat: in.float(), MinLon: in.float(), MaxLat: in.float(), MaxLon: in.float(),
			Keyword: in.string(), From: in.string(), To: in.string(), OrderBy: in.string(), Limit: int(in.int64())}
		if n := in.count(); n >= 0 {
			s.Friends = make([]int64, n)
		}
		for i := range s.Friends {
			s.Friends[i] = in.int64()
		}
		valid := true
		for _, str := range []string{s.Token, s.Keyword, s.From, s.To, s.OrderBy} {
			valid = valid && utf8.ValidString(str)
		}
		checkBody(t, s, valid)
	})
}

// FuzzCheckinsRequest is FuzzSearchRequest for the check-in batch body.
func FuzzCheckinsRequest(f *testing.F) {
	_, c := benchBodies()
	addSeeds(f, c)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode[CheckinsRequest](t, data)
		in := reqBytes(data)
		c := &CheckinsRequest{Token: in.string()}
		if n := in.count(); n >= 0 {
			c.Checkins = make([]Checkin, n)
		}
		valid := utf8.ValidString(c.Token)
		for i := range c.Checkins {
			c.Checkins[i] = Checkin{POIID: in.int64(), Time: in.int64(), Grade: in.float(), Network: in.string()}
			valid = valid && utf8.ValidString(c.Checkins[i].Network)
		}
		checkBody(t, c, valid)
	})
}

// TestRequestJSONCoversEveryField fails when a JSON member is added to a
// hand-decoded type but not to its decoder's key list (the names a
// case-insensitive key folds onto), which is in declaration order.
func TestRequestJSONCoversEveryField(t *testing.T) {
	for _, c := range []struct {
		v    any
		keys []string
	}{
		{SearchRequest{}, searchKeys},
		{CheckinsRequest{}, checkinsKeys},
		{Checkin{}, checkinKeys},
	} {
		typ := reflect.TypeOf(c.v)
		var names []string
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			names = append(names, name)
		}
		if !reflect.DeepEqual(names, c.keys) {
			t.Errorf("%s has JSON fields %q, the decoder knows %q", typ, names, c.keys)
		}
	}
}

// TestRequestJSONAllocs pins the hand codecs on the benchmark-shaped bodies:
// no allocation to append into a buffer with room; to decode, the body's
// one string copy, the friend or item list, and the strings that outlive the
// request (the keyword and the order; the batch's one network).
func TestRequestJSONAllocs(t *testing.T) {
	s, c := benchBodies()
	buf := make([]byte, 0, 8<<10)
	for _, x := range []struct {
		v    codec
		want float64
	}{{s, 4}, {c, 3}} {
		if n := testing.AllocsPerRun(100, func() { buf, _ = x.v.AppendJSON(buf[:0]) }); n != 0 {
			t.Errorf("%T.AppendJSON allocates %v times, want 0", x.v, n)
		}
		doc := bytes.Clone(buf)
		if n := testing.AllocsPerRun(100, func() {
			reflect.ValueOf(x.v).Elem().SetZero()
			if err := x.v.DecodeJSON(doc); err != nil {
				t.Fatal(err)
			}
		}); n != x.want {
			t.Errorf("%T.DecodeJSON allocates %v times, want %v", x.v, n, x.want)
		}
	}
}

// TestRequestJSONDetachesRetainedStrings requires the strings a request
// leaves behind — a check-in's network, a search's keyword and order — to
// lie outside the body's string copy, which the token, used only while the
// request runs, shows the place of.
func TestRequestJSONDetachesRetainedStrings(t *testing.T) {
	const token = "0123456789abcdef"
	searchDoc := `{"token":"` + token + `","keyword":"food","order_by":"hotness"}`
	checkinsDoc := `{"token":"` + token + `","checkins":[{"network":"facebook"},{"network":"facebook"},{"network":"twitter"},{}]}`
	var s SearchRequest
	var c CheckinsRequest
	if err := s.DecodeJSON([]byte(searchDoc)); err != nil {
		t.Fatal(err)
	}
	if err := c.DecodeJSON([]byte(checkinsDoc)); err != nil {
		t.Fatal(err)
	}
	inBody := func(tok, doc, str string) bool {
		if str == "" {
			return false
		}
		start := uintptr(unsafe.Pointer(unsafe.StringData(tok))) - uintptr(strings.Index(doc, token))
		p := uintptr(unsafe.Pointer(unsafe.StringData(str)))
		return start <= p && p < start+uintptr(len(doc))
	}
	if !inBody(s.Token, searchDoc, s.Token) {
		t.Fatal("sanity: the token is not a substring of the body copy")
	}
	for _, str := range []string{s.Keyword, s.OrderBy} {
		if inBody(s.Token, searchDoc, str) {
			t.Errorf("search member %q points into the body copy", str)
		}
	}
	for i, it := range c.Checkins {
		if inBody(c.Token, checkinsDoc, it.Network) {
			t.Errorf("check-in %d's network %q points into the body copy", i, it.Network)
		}
	}
	if unsafe.StringData(c.Checkins[0].Network) != unsafe.StringData(c.Checkins[1].Network) {
		t.Error("two consecutive equal networks got a copy each")
	}
}

// BenchmarkRequestJSON runs the hand codecs and their encoding/json
// references on the benchmark-shaped bodies.
func BenchmarkRequestJSON(b *testing.B) {
	s, c := benchBodies()
	for _, x := range []struct {
		name string
		v    codec
	}{{"search", s}, {"checkins", c}} {
		doc, err := json.Marshal(x.v)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 0, 2*len(doc))
		fresh := reflect.New(reflect.TypeOf(x.v).Elem()).Interface().(codec)
		for _, op := range []struct {
			name string
			run  func() error
		}{
			{"append", func() (err error) { buf, err = x.v.AppendJSON(buf[:0]); return err }},
			{"encoding_json_marshal", func() error { _, err := json.Marshal(x.v); return err }},
			{"decode", func() error { reflect.ValueOf(fresh).Elem().SetZero(); return fresh.DecodeJSON(doc) }},
			{"encoding_json_decode", func() error { reflect.ValueOf(fresh).Elem().SetZero(); return decodeRef(doc, fresh) }},
		} {
			b.Run(x.name+"/"+op.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(doc)))
				for i := 0; i < b.N; i++ {
					if err := op.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
