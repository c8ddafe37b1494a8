package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"modissense/internal/wire"
)

// What the client sends, through its pooled request buffers, against
// json.Marshal of the body it means to send. (internal/wire's fuzz targets
// hold the body codecs themselves to encoding/json.)

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

// checkSent gives a fresh client token and requires SearchCtx with p and
// PushCheckinsCtx with items to send json.Marshal's bytes of their bodies,
// or to fail with json.Marshal's error and send nothing.
func checkSent(t *testing.T, token string, p SearchParams, items []Checkin) {
	t.Helper()
	capture := &captureTransport{}
	c, err := New("http://modissense.invalid", &http.Client{Transport: capture})
	if err != nil {
		t.Fatal(err)
	}
	c.token = token
	search := searchBody(token, p)
	for _, x := range []struct {
		body any
		send func() error
	}{
		{&search, func() error { _, err := c.SearchCtx(context.Background(), p); return err }},
		{&wire.CheckinsRequest{Checkins: items, Token: token}, func() error {
			_, err := c.PushCheckinsCtx(context.Background(), items)
			return err
		}},
	} {
		want, wantErr := json.Marshal(x.body)
		capture.body = nil
		err := x.send()
		if wantErr != nil {
			if err == nil || !strings.Contains(err.Error(), "client: marshal request: "+wantErr.Error()) || capture.body != nil {
				t.Errorf("%T: sent %q (%v), want json.Marshal's error %v", x.body, capture.body, err, wantErr)
			}
		} else if err != nil || !bytes.Equal(capture.body, want) {
			t.Errorf("%T: sent\n%s (%v)\nwant\n%s", x.body, capture.body, err, want)
		}
	}
}

// TestRequestJSONAppendEdges covers the sent bodies' rules one by one:
// absent and empty lists, omitted members, every escape, and the values
// json.Marshal refuses.
func TestRequestJSONAppendEdges(t *testing.T) {
	html := "Fish & Chips <Café> \t\"\\\x01\xff"
	day := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		name, token string
		p           SearchParams
		items       []Checkin
	}{
		{"zero", "", SearchParams{}, nil},
		{"empty lists", "", SearchParams{Friends: []int64{}}, []Checkin{}},
		{"zero grade and network omitted", "", SearchParams{From: day}, []Checkin{{POIID: 1, Time: 2}, {Grade: math.Copysign(0, -1)}}},
		{"window end only", "", SearchParams{To: day.AddDate(0, 0, 7), Limit: -1}, []Checkin{{Network: "n"}}},
		{"escapes", html, SearchParams{Keyword: html, OrderBy: html}, []Checkin{{Network: html}}},
		{"extremes", "", SearchParams{MinLat: -0.0, MaxLat: 1e21, MinLon: 1e-7, MaxLon: 5e-324, Friends: []int64{math.MinInt64, math.MaxInt64}, Limit: math.MaxInt},
			[]Checkin{{POIID: math.MinInt64, Time: math.MaxInt64, Grade: 123456789e13}}},
		{"NaN coordinate, infinite grade", "", SearchParams{MinLat: math.NaN()}, []Checkin{{Grade: math.Inf(-1)}}},
		{"infinite coordinate, NaN grade", "", SearchParams{MaxLon: math.Inf(1)}, []Checkin{{Grade: math.NaN()}}},
	} {
		t.Run(c.name, func(t *testing.T) { checkSent(t, c.token, c.p, c.items) })
	}
}

// FuzzRequestJSON holds what the client sends to json.Marshal on calls
// built from the input: any string bytes, any float (NaN and the
// infinities included), any window.
func FuzzRequestJSON(f *testing.F) {
	f.Add("token", "facebook", 37.9, 23.6, int64(1433116800000), 4.0)
	f.Add("Fish & Chips <Caf\xc3\xa9>\xe2\x80\xa8\xff", "", math.Inf(1), -0.0, int64(-1), 0.0)
	f.Fuzz(func(t *testing.T, text, network string, lat, lon float64, ms int64, grade float64) {
		at := time.UnixMilli(ms).UTC()
		p := SearchParams{MinLat: lat, MaxLon: lon, Keyword: text, OrderBy: network, Friends: []int64{ms},
			From: at, To: at.Add(time.Hour), Limit: int(ms)}
		checkSent(t, text, p, []Checkin{{POIID: ms, Time: ms, Grade: grade, Network: network}})
	})
}

// TestRequestJSONAllocs pins the encode of the bodies the client builds,
// shaped like the repository benchmark's (a search over 30 friends, a push of
// 50 check-ins), at no allocation into a buffer with room.
func TestRequestJSONAllocs(t *testing.T) {
	const token = "3f9a1c0e5b7d2a4c6e8f0a1b3c5d7e9f"
	friends := make([]int64, 30)
	for i := range friends {
		friends[i] = int64(1 + i*613)
	}
	search := searchBody(token, SearchParams{MinLat: 37.9, MinLon: 23.6, MaxLat: 38.1, MaxLon: 23.9, Keyword: "food",
		Friends: friends, From: time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC), OrderBy: "interest", Limit: 10})
	items := make([]Checkin, 50)
	for i := range items {
		items[i] = Checkin{POIID: int64(1 + i*16), Time: 1433116800000 + int64(i)*60000, Grade: float64(1 + i%5), Network: "foursquare"}
	}
	buf := make([]byte, 0, 8<<10)
	for _, enc := range []encodedBody{&search, &wire.CheckinsRequest{Checkins: items, Token: token}} {
		if n := testing.AllocsPerRun(100, func() { buf, _ = enc.AppendJSON(buf[:0]) }); n != 0 {
			t.Errorf("%T.AppendJSON allocates %v times, want 0", enc, n)
		}
	}
}

// TestClientSendsMarshalledBytes checks the wire: SearchCtx and
// PushCheckinsCtx send exactly json.Marshal's bytes of the forms they used
// to marshal, a search request and the check-in push as a map.
func TestClientSendsMarshalledBytes(t *testing.T) {
	capture := &captureTransport{}
	c, err := New("http://modissense.invalid", &http.Client{Transport: capture})
	if err != nil {
		t.Fatal(err)
	}
	c.token = "tok<&>"
	from := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	// Shaped like the repository benchmark's: 30 friends, 50 check-ins.
	var friends []int64
	var items []Checkin
	for i := int64(0); i < 50; i++ {
		if i < 30 {
			friends = append(friends, 1+i*i*23)
		}
		items = append(items, Checkin{POIID: 1 + i*13%800, Time: 1433116800000 + i*60000, Grade: float64(1 + i%5),
			Network: []string{"facebook", "twitter", "foursquare"}[i%3]})
	}
	params := SearchParams{MinLat: 37.9, MinLon: 23.6, MaxLat: 38.1, MaxLon: 23.9, Keyword: "food",
		Friends: friends, From: from, OrderBy: "interest", Limit: 10}
	if _, err := c.SearchCtx(context.Background(), params); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(wire.SearchRequest{Token: c.token, MinLat: 37.9, MinLon: 23.6, MaxLat: 38.1, MaxLon: 23.9,
		Keyword: "food", Friends: friends, From: "2015-05-01T00:00:00Z", OrderBy: "interest", Limit: 10})
	if err != nil || !bytes.Equal(capture.body, want) {
		t.Errorf("search sent\n%s\nwant\n%s", capture.body, want)
	}
	if _, err := c.PushCheckinsCtx(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	wantPush, err := json.Marshal(map[string]interface{}{"token": c.token, "checkins": items})
	if err != nil || !bytes.Equal(capture.body, wantPush) {
		t.Errorf("push sent\n%s\nwant\n%s", capture.body, wantPush)
	}
	params.MinLat = math.NaN()
	if _, err := c.SearchCtx(context.Background(), params); err == nil || !strings.Contains(err.Error(), "client: marshal request: json: unsupported value: NaN") {
		t.Errorf("NaN search: %v, want json.Marshal's unsupported-value error", err)
	}
}
