package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"
)

// The request bodies' hand encoders against json.Marshal of the forms the
// client sent before it had them: searchRequest, and the check-in push as a
// map[string]interface{}. (The server's FuzzRequestJSON holds the decode
// side to encoding/json.)

// marshalledBodies returns json.Marshal's bytes for both request forms.
func marshalledBodies(s *searchRequest, c *checkinsBody) (search []byte, searchErr error, checkins []byte, checkinsErr error) {
	search, searchErr = json.Marshal(s)
	checkins, checkinsErr = json.Marshal(map[string]interface{}{"token": c.Token, "checkins": c.Checkins})
	return
}

// checkAppend requires each hand encoder to produce json.Marshal's bytes
// after a prefix it leaves alone, or to fail with json.Marshal's error.
func checkAppend(t *testing.T, s *searchRequest, c *checkinsBody) {
	t.Helper()
	wantS, wantSErr, wantC, wantCErr := marshalledBodies(s, c)
	for _, x := range []struct {
		name    string
		enc     encodedBody
		want    []byte
		wantErr error
	}{
		{"search", s, wantS, wantSErr},
		{"checkins", c, wantC, wantCErr},
	} {
		got, err := x.enc.appendJSON([]byte("prefix"))
		if (err != nil) != (x.wantErr != nil) || (err != nil && err.Error() != x.wantErr.Error()) {
			t.Fatalf("%s: appendJSON error %v, json.Marshal error %v, for %+v", x.name, err, x.wantErr, x.enc)
		}
		if err == nil && !bytes.Equal(got, append([]byte("prefix"), x.want...)) {
			t.Fatalf("%s: appendJSON diverged from json.Marshal:\ngot  %s\nwant prefix%s", x.name, got, x.want)
		}
	}
}

// benchRequests returns request forms shaped like the repository
// benchmark's: a search over 30 friends with a box, a keyword and an
// open-ended window, and a push of 50 check-ins with grade and network.
func benchRequests() (*searchRequest, *checkinsBody) {
	rng := rand.New(rand.NewSource(1))
	const token = "3f9a1c0e5b7d2a4c6e8f0a1b3c5d7e9f"
	s := &searchRequest{Token: token, MinLat: 37.9, MinLon: 23.6, MaxLat: 38.1, MaxLon: 23.9, Keyword: "food",
		From: "2015-05-01T00:00:00Z", OrderBy: "interest", Limit: 10}
	for i := 0; i < 30; i++ {
		s.Friends = append(s.Friends, 1+rng.Int63n(20000))
	}
	c := &checkinsBody{Token: token}
	for i := 0; i < 50; i++ {
		c.Checkins = append(c.Checkins, Checkin{POIID: 1 + rng.Int63n(800), Time: 1433116800000 + int64(i)*60000,
			Grade: float64(1 + rng.Intn(5)), Network: []string{"facebook", "twitter", "foursquare"}[rng.Intn(3)]})
	}
	return s, c
}

// TestRequestJSONAppendEdges covers the encoders' rules one by one: absent
// and empty lists, omitted members, every escape, and the values
// json.Marshal refuses.
func TestRequestJSONAppendEdges(t *testing.T) {
	html := "Fish & Chips <Café> \t\"\\\x01\xff"
	for _, c := range []struct {
		name string
		s    searchRequest
		c    checkinsBody
	}{
		{"zero", searchRequest{}, checkinsBody{}},
		{"empty lists", searchRequest{Friends: []int64{}}, checkinsBody{Checkins: []Checkin{}}},
		{"zero grade and network omitted", searchRequest{From: "x"}, checkinsBody{Checkins: []Checkin{{POIID: 1, Time: 2}, {Grade: math.Copysign(0, -1)}}}},
		{"window end only", searchRequest{To: "2015-05-08T00:00:00Z", Limit: -1}, checkinsBody{Checkins: []Checkin{{Network: "n"}}}},
		{"escapes", searchRequest{Token: html, Keyword: html, OrderBy: html, From: html, To: html},
			checkinsBody{Token: html, Checkins: []Checkin{{Network: html}}}},
		{"extremes", searchRequest{MinLat: -0.0, MaxLat: 1e21, MinLon: 1e-7, MaxLon: 5e-324, Friends: []int64{math.MinInt64, math.MaxInt64}, Limit: math.MaxInt},
			checkinsBody{Checkins: []Checkin{{POIID: math.MinInt64, Time: math.MaxInt64, Grade: 123456789e13}}}},
		{"NaN coordinate, infinite grade", searchRequest{MinLat: math.NaN()}, checkinsBody{Checkins: []Checkin{{Grade: math.Inf(-1)}}}},
		{"infinite coordinate, NaN grade", searchRequest{MaxLon: math.Inf(1)}, checkinsBody{Checkins: []Checkin{{Grade: math.NaN()}}}},
	} {
		t.Run(c.name, func(t *testing.T) { checkAppend(t, &c.s, &c.c) })
	}
	s, cb := benchRequests()
	checkAppend(t, s, cb)
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

// FuzzRequestJSON holds the request encoders to json.Marshal on forms built
// from the input: every field, nil and empty lists, omitted members, any
// float (NaN and the infinities included) and any string bytes.
func FuzzRequestJSON(f *testing.F) {
	f.Add([]byte("\x05token\x08\x40\x43\x00\x00\x00\x00\x00\x00\x04food\x03\x01\x02\x03"))
	f.Add([]byte("\x1f\x00\x05Fish & Chips <Caf\xc3\xa9>\xe2\x80\xa8\xff\x04\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := reqBytes(data)
		s := &searchRequest{Token: in.string(), MinLat: in.float(), MinLon: in.float(), MaxLat: in.float(), MaxLon: in.float(),
			Keyword: in.string(), From: in.string(), To: in.string(), OrderBy: in.string(), Limit: int(in.int64())}
		if n := int(in.byte() % 6); n > 0 {
			s.Friends = make([]int64, n-1)
		}
		for i := range s.Friends {
			s.Friends[i] = in.int64()
		}
		c := &checkinsBody{Token: in.string()}
		if n := int(in.byte() % 6); n > 0 {
			c.Checkins = make([]Checkin, n-1)
		}
		for i := range c.Checkins {
			c.Checkins[i] = Checkin{POIID: in.int64(), Time: in.int64(), Grade: in.float(), Network: in.string()}
		}
		checkAppend(t, s, c)
	})
}

// TestRequestJSONAllocs pins the encoders at no allocation into a buffer
// with room.
func TestRequestJSONAllocs(t *testing.T) {
	s, c := benchRequests()
	buf := make([]byte, 0, 8<<10)
	for _, enc := range []encodedBody{s, c} {
		if n := testing.AllocsPerRun(100, func() { buf, _ = enc.appendJSON(buf[:0]) }); n != 0 {
			t.Errorf("%T.appendJSON allocates %v times, want 0", enc, n)
		}
	}
}

// captureTransport answers every request with an empty JSON object and
// keeps the body it was sent.
type captureTransport struct{ body []byte }

func (c *captureTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var err error
	if c.body, err = io.ReadAll(req.Body); err != nil {
		return nil, err
	}
	req.Body.Close()
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader("{}")),
		ContentLength: 2, Request: req}, nil
}

// TestClientSendsMarshalledBytes checks the wire: SearchCtx and
// PushCheckinsCtx send exactly json.Marshal's bytes of the forms they used
// to marshal.
func TestClientSendsMarshalledBytes(t *testing.T) {
	capture := &captureTransport{}
	c, err := New("http://modissense.invalid", &http.Client{Transport: capture})
	if err != nil {
		t.Fatal(err)
	}
	c.token = "tok<&>"
	s, cb := benchRequests()
	from := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	params := SearchParams{MinLat: s.MinLat, MinLon: s.MinLon, MaxLat: s.MaxLat, MaxLon: s.MaxLon, Keyword: s.Keyword,
		Friends: s.Friends, From: from, OrderBy: s.OrderBy, Limit: s.Limit}
	if _, err := c.SearchCtx(context.Background(), params); err != nil {
		t.Fatal(err)
	}
	s.Token = c.token
	want, wantErr, wantPush, _ := marshalledBodies(s, &checkinsBody{Token: c.token, Checkins: cb.Checkins})
	if wantErr != nil || !bytes.Equal(capture.body, want) {
		t.Errorf("search sent\n%s\nwant\n%s", capture.body, want)
	}
	if _, err := c.PushCheckinsCtx(context.Background(), cb.Checkins); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(capture.body, wantPush) {
		t.Errorf("push sent\n%s\nwant\n%s", capture.body, wantPush)
	}
	params.MinLat = math.NaN()
	if _, err := c.SearchCtx(context.Background(), params); err == nil || !strings.Contains(err.Error(), "client: marshal request: json: unsupported value: NaN") {
		t.Errorf("NaN search: %v, want json.Marshal's unsupported-value error", err)
	}
}

// BenchmarkRequestJSON compares the hand encoders with json.Marshal on the
// benchmark-shaped bodies. (The server's BenchmarkRequestJSON has the decode
// side.)
func BenchmarkRequestJSON(b *testing.B) {
	s, c := benchRequests()
	for _, x := range []struct {
		name    string
		enc     encodedBody
		marshal func() ([]byte, error)
	}{
		{"search", s, func() ([]byte, error) { return json.Marshal(s) }},
		{"checkins", c, func() ([]byte, error) {
			return json.Marshal(map[string]interface{}{"token": c.Token, "checkins": c.Checkins})
		}},
	} {
		data, err := x.marshal()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(x.name+"/append", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			buf := make([]byte, 0, 2*len(data))
			for i := 0; i < b.N; i++ {
				buf, _ = x.enc.appendJSON(buf[:0])
			}
		})
		b.Run(x.name+"/encoding_json_marshal", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := x.marshal(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
