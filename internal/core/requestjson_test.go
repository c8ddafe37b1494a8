package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"modissense/internal/geo"
	"modissense/internal/model"
	"modissense/internal/query"
	"modissense/internal/wire"
)

// reqDoc writes a JSON \u escape as ~ (so this file stays plain ASCII).
func reqDoc(s string) string { return strings.ReplaceAll(s, "~", `\u`) }

// checkRequest requires the route's decode of doc into T (decodeRequest)
// to leave what the reference (json.Decoder + DisallowUnknownFields, the
// decodeBody of every other route) leaves, its error message included, and
// the hand decoder alone to accept exactly what the reference accepts: the
// fallback must be the error path only. It reports whether doc was
// accepted. (internal/wire's fuzz targets hold the codecs on their own.)
func checkRequest[T any, P interface {
	*T
	requestBody
}](t *testing.T, doc []byte) bool {
	t.Helper()
	var hand, route, want T
	handErr := P(&hand).DecodeJSON(doc)
	routeErr := decodeRequest(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(doc)), P(&route))
	wantErr := decodeJSON(bytes.NewReader(doc), &want)
	if (handErr != nil) != (wantErr != nil) || fmt.Sprint(routeErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%T: hand decode error %v, route error %v, reference error %v, on %q", hand, handErr, routeErr, wantErr, doc)
	}
	if wantErr == nil && (!reflect.DeepEqual(hand, want) || !reflect.DeepEqual(route, want)) {
		t.Fatalf("%T: decode diverged from the reference on %q:\nhand  %#v\nroute %#v\nwant  %#v", hand, doc, hand, route, want)
	}
	return wantErr == nil
}

// checkBoth holds both request types to the reference on doc and returns
// whether each accepted it.
func checkBoth(t *testing.T, doc []byte) (search, checkins bool) {
	t.Helper()
	return checkRequest[wire.SearchRequest](t, doc), checkRequest[wire.CheckinsRequest](t, doc)
}

const deep = 10001 // one level past encoding/json's nesting limit

// requestEdges are the documents where json.Decoder.Decode's handling of a
// request body has a rule to mirror. Each runs against both request types;
// ok is whether the reference accepts it into the body it was written for.
var requestEdges = []struct {
	name, body, doc string
	ok              bool
}{
	{"trailing bytes after the object", "search", `{"token":"x"} garbage`, true},
	{"a second object after the first", "search", `{"token":"x"}{"token":"y"}`, true},
	{"trailing bytes, no space", "search", `{"limit":2}]]`, true},
	{"null body", "search", `null`, true},
	{"null then anything", "search", `nullx`, true},
	{"null padded", "search", " \n null \t", true},
	{"empty body", "search", ``, false},
	{"whitespace only", "search", " \t\r\n", false},
	{"truncated null", "search", `nul`, false},
	{"top-level array", "search", `[]`, false},
	{"top-level string", "search", `"str"`, false},
	{"top-level number", "search", `7`, false},
	{"empty object", "search", `{}`, true},
	{"case-folded keys", "search", `{"TOKEN":"a","Min_Lat":1,"FRIENDS":[1],"Order_By":"hotness","LIMIT":3}`, true},
	{"unicode fold (Kelvin sign)", "search", `{"~212aeyword":"k"}`, true},
	{"escaped key", "search", `{"t~006fken":"a"}`, true},
	{"duplicate scalars: the last wins", "search", `{"token":"a","limit":1,"token":"b","limit":2}`, true},
	{"duplicate friends reuse elements", "search", `{"friends":[1,2,3],"friends":[9]}`, true},
	{"stale friends come back", "search", `{"friends":[1,2,3],"friends":[9],"friends":[null,null,null]}`, true},
	{"friends null gives nil", "search", `{"friends":[1],"friends":null}`, true},
	{"friends empty", "search", `{"friends":[]}`, true},
	{"null members keep values", "search", `{"token":"a","token":null,"limit":3,"limit":null,"min_lat":1,"min_lat":null}`, true},
	{"unknown member", "search", `{"tokn":"x"}`, false},
	{"unknown object member", "search", `{"token":"x","extra":{"a":[1,2]}}`, false},
	{"invalid UTF-8 in a key", "search", "{\"tok\xffen\":\"x\"}", false},
	{"string for int", "search", `{"limit":"5"}`, false},
	{"fraction into int", "search", `{"limit":1.5}`, false},
	{"1.0 into int", "search", `{"limit":1.0}`, false},
	{"exponent into int64", "search", `{"friends":[1e3]}`, false},
	{"int overflow", "search", `{"limit":99999999999999999999}`, false},
	{"min int64", "search", `{"friends":[-9223372036854775808,-0]}`, true},
	{"float overflow", "search", `{"min_lat":1e400}`, false},
	{"float underflow", "search", `{"min_lat":1e-400,"max_lon":-5e-324}`, true},
	{"float forms", "search", `{"min_lat":-0.0e+0,"max_lat":1E2,"min_lon":12.5e-3}`, true},
	{"bool for float", "search", `{"max_lon":true}`, false},
	{"number for string", "search", `{"token":1}`, false},
	{"object for list", "search", `{"friends":{}}`, false},
	{"string element", "search", `{"friends":[1,"2"]}`, false},
	{"leading zero", "search", `{"limit":01}`, false},
	{"trailing member comma", "search", `{"token":"x",}`, false},
	{"trailing element comma", "search", `{"friends":[1,]}`, false},
	{"missing value", "search", `{"token":"a","token":}`, false},
	{"bad literal", "search", `{"order_by":nulls}`, false},
	{"unterminated", "search", `{"keyword":"a"`, false},
	{"nesting beyond 10 000", "search", `{"friends":` + strings.Repeat("[", deep) + strings.Repeat("]", deep) + `}`, false},
	{"nesting beyond 10 000 in an unknown member", "search", `{"x":` + strings.Repeat("[", deep) + strings.Repeat("]", deep) + `}`, false},
	{"invalid UTF-8", "search", "{\"token\":\"a\xffb\xc3\",\"keyword\":\"\xed\xa0\x80\"}", true},
	{"lone surrogates", "search", `{"token":"a~d800b","keyword":"~dc00"}`, true},
	{"surrogate pair", "search", `{"keyword":"~d83d~de00","order_by":"~d800~d800~dc00"}`, true},
	{"escapes", "search", `{"keyword":"\"\\\/\b\f\n\r\t~0041~00e9~2028"}`, true},
	{"bad escape", "search", `{"token":"\q"}`, false},
	{"bad \\u escape", "search", `{"token":"~d8"}`, false},
	{"raw control byte", "search", "{\"token\":\"a\x01\"}", false},
	{"whitespace", "search", " \r\n{ \"token\" : \"a\" , \"friends\" : [ 1 , 2 ] } ", true},
	{"benchmark-shaped item", "checkins", `{"checkins":[{"poi_id":12,"time":1433116800000,"grade":4,"network":"facebook"}],"token":"t"}`, true},
	{"null item", "checkins", `{"checkins":[null,{"poi_id":1}]}`, true},
	{"unknown member inside an item", "checkins", `{"checkins":[{"poi_id":1,"tme":1}]}`, false},
	{"unknown object inside an item", "checkins", `{"checkins":[{"poi_id":1,"extra":{"a":[1]}}]}`, false},
	{"unknown member after the items", "checkins", `{"checkins":[{"poi_id":1}],"token":"bogus","x":1}`, false},
	{"case-folded item keys", "checkins", `{"Checkins":[{"POI_ID":1,"TIME":5,"Grade":2,"NETWORK":"x"}],"TOKEN":"t"}`, true},
	{"unicode folds (Kelvin sign, long s)", "checkins", `{"chec~212ain~017f":[{"networ~212a":"x"}]}`, true},
	{"a repeated list decodes into its items", "checkins", `{"checkins":[{"poi_id":1,"time":2}],"checkins":[{"grade":3}]}`, true},
	{"stale items come back", "checkins", `{"checkins":[{"poi_id":1},{"poi_id":2},{"poi_id":3}],"checkins":[{"poi_id":9}],"checkins":[null,null,null]}`, true},
	{"checkins null", "checkins", `{"token":"x","checkins":null}`, true},
	{"checkins empty", "checkins", `{"checkins":[]}`, true},
	{"checkins an object", "checkins", `{"checkins":{}}`, false},
	{"number item", "checkins", `{"checkins":[1]}`, false},
	{"fraction time", "checkins", `{"checkins":[{"poi_id":1,"time":1.5}]}`, false},
	{"time overflow", "checkins", `{"checkins":[{"time":92233720368547758070}]}`, false},
	{"grade string", "checkins", `{"checkins":[{"grade":"4"}]}`, false},
	{"network number", "checkins", `{"checkins":[{"network":5}]}`, false},
	{"grade overflow", "checkins", `{"checkins":[{"grade":1e999}]}`, false},
	{"top-level array of items", "checkins", `[{"poi_id":1}]`, false},
	{"item trailing bytes", "checkins", `{"checkins":[{"poi_id":1}]} tail`, true},
	{"nesting beyond 10 000 in an item", "checkins", `{"checkins":[{"poi_id":` + strings.Repeat("[", deep) + strings.Repeat("]", deep) + `}]}`, false},
	{"invalid UTF-8 network", "checkins", "{\"checkins\":[{\"network\":\"fb\xff\"}]}", true},
}

// TestRequestJSONDecodeEdges runs each stream and decoding rule against the
// reference, for both request types.
func TestRequestJSONDecodeEdges(t *testing.T) {
	for _, c := range requestEdges {
		t.Run(c.name, func(t *testing.T) {
			search, checkins := checkBoth(t, []byte(reqDoc(c.doc)))
			if ok := map[string]bool{"search": search, "checkins": checkins}[c.body]; ok != c.ok {
				t.Errorf("%s body accepted = %v, want %v", c.body, ok, c.ok)
			}
		})
	}
}

// benchBodies returns request bodies shaped like the repository benchmark's,
// as the typed client sends them: a search over 30 friends with a box, a
// keyword and an open-ended window, and one user's push of 50 check-ins with
// grade and network.
func benchBodies(tb testing.TB) (search, checkins []byte) {
	rng := rand.New(rand.NewSource(1))
	const token = "3f9a1c0e5b7d2a4c6e8f0a1b3c5d7e9f"
	friends := make([]int64, 30)
	for i := range friends {
		friends[i] = 1 + rng.Int63n(20000)
	}
	search, err := json.Marshal(map[string]interface{}{
		"token": token, "min_lat": 37.9, "min_lon": 23.6, "max_lat": 38.1, "max_lon": 23.9,
		"keyword": "food", "friends": friends, "from": "2015-05-01T00:00:00Z", "order_by": "interest", "limit": 10,
	})
	if err != nil {
		tb.Fatal(err)
	}
	items := make([]map[string]interface{}, 50)
	for i := range items {
		items[i] = map[string]interface{}{"poi_id": 1 + rng.Intn(800), "time": 1433116800000 + int64(i)*60000,
			"grade": 1 + rng.Intn(5), "network": "foursquare"}
	}
	checkins, err = json.Marshal(map[string]interface{}{"token": token, "checkins": items})
	if err != nil {
		tb.Fatal(err)
	}
	return search, checkins
}

// TestRequestJSONAllocs pins the hand decode of the benchmark-shaped bodies
// the route reads: the body's one string copy, the friend or item list, and
// the strings that outlive the request (the keyword and the order; the
// batch's one network).
func TestRequestJSONAllocs(t *testing.T) {
	search, checkins := benchBodies(t)
	for _, c := range []struct {
		name string
		doc  []byte
		v    requestBody
		want float64
	}{
		{"search", search, new(wire.SearchRequest), 4},
		{"checkins", checkins, new(wire.CheckinsRequest), 3},
	} {
		if n := testing.AllocsPerRun(100, func() {
			reflect.ValueOf(c.v).Elem().SetZero()
			if err := c.v.DecodeJSON(c.doc); err != nil {
				t.Fatal(err)
			}
		}); n != c.want {
			t.Errorf("%s decode allocates %v times, want %v", c.name, n, c.want)
		}
	}
}

// FuzzRequestJSON is the differential test of the route's request decode
// against the reference: every input must be accepted or refused by each
// hand decoder exactly when json.Decoder (unknown fields refused) accepts or
// refuses it, and the route must leave the reference's value or error.
func FuzzRequestJSON(f *testing.F) {
	search, checkins := benchBodies(f)
	f.Add(search)
	f.Add(checkins)
	for _, c := range requestEdges {
		if len(c.doc) < 1000 {
			f.Add([]byte(reqDoc(c.doc)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkBoth(t, data) })
}

// bodyEnvelopes are malformed (and two odd but valid) search and check-in
// bodies with the status and envelope message encoding/json's decodeBody
// gave them before the hand decoders existed. They are literals, not
// recomputed from the reference: renaming a request type changes a message
// and fails the test.
var bodyEnvelopes = []struct {
	path, body string
	status     int
	message    string
}{
	{"/api/v1/search", "", 400, "core: invalid request body: EOF"},
	{"/api/v1/search", " \n\t ", 400, "core: invalid request body: EOF"},
	{"/api/v1/search", "{", 400, "core: invalid request body: unexpected EOF"},
	{"/api/v1/search", "{broken", 400, "core: invalid request body: invalid character 'b' looking for beginning of object key string"},
	{"/api/v1/search", "[]", 400, "core: invalid request body: json: cannot unmarshal array into Go value of type wire.SearchRequest"},
	{"/api/v1/search", "\"str\"", 400, "core: invalid request body: json: cannot unmarshal string into Go value of type wire.SearchRequest"},
	{"/api/v1/search", "7", 400, "core: invalid request body: json: cannot unmarshal number into Go value of type wire.SearchRequest"},
	{"/api/v1/search", "nul", 400, "core: invalid request body: unexpected EOF"},
	{"/api/v1/search", "nullx", 400, "social: invalid access token"},
	{"/api/v1/search", "{\"tokn\":\"x\"}", 400, "core: invalid request body: json: unknown field \"tokn\""},
	{"/api/v1/search", "{\"token\":\"x\",\"extra\":{\"a\":[1,2]}}", 400, "core: invalid request body: json: unknown field \"extra\""},
	{"/api/v1/search", "{\"limit\":1.5}", 400, "core: invalid request body: json: cannot unmarshal number 1.5 into Go struct field SearchRequest.limit of type int"},
	{"/api/v1/search", "{\"limit\":1.0}", 400, "core: invalid request body: json: cannot unmarshal number 1.0 into Go struct field SearchRequest.limit of type int"},
	{"/api/v1/search", "{\"limit\":\"5\"}", 400, "core: invalid request body: json: cannot unmarshal string into Go struct field SearchRequest.limit of type int"},
	{"/api/v1/search", "{\"limit\":99999999999999999999}", 400, "core: invalid request body: json: cannot unmarshal number 99999999999999999999 into Go struct field SearchRequest.limit of type int"},
	{"/api/v1/search", "{\"friends\":[1,\"2\"]}", 400, "core: invalid request body: json: cannot unmarshal string into Go struct field SearchRequest.friends of type int64"},
	{"/api/v1/search", "{\"friends\":{}}", 400, "core: invalid request body: json: cannot unmarshal object into Go struct field SearchRequest.friends of type []int64"},
	{"/api/v1/search", "{\"friends\":[1,]}", 400, "core: invalid request body: invalid character ']' looking for beginning of value"},
	{"/api/v1/search", "{\"friends\":[1e3]}", 400, "core: invalid request body: json: cannot unmarshal number 1e3 into Go struct field SearchRequest.friends of type int64"},
	{"/api/v1/search", "{\"min_lat\":1e400}", 400, "core: invalid request body: json: cannot unmarshal number 1e400 into Go struct field SearchRequest.min_lat of type float64"},
	{"/api/v1/search", "{\"max_lon\":true}", 400, "core: invalid request body: json: cannot unmarshal bool into Go struct field SearchRequest.max_lon of type float64"},
	{"/api/v1/search", "{\"token\":1}", 400, "core: invalid request body: json: cannot unmarshal number into Go struct field SearchRequest.token of type string"},
	{"/api/v1/search", "{\"token\":\"a\",\"token\":}", 400, "core: invalid request body: invalid character '}' looking for beginning of value"},
	{"/api/v1/search", "{\"token\":\"x\",}", 400, "core: invalid request body: invalid character '}' looking for beginning of object key string"},
	{"/api/v1/search", "{\"token\":\"\\q\"}", 400, "core: invalid request body: invalid character 'q' in string escape code"},
	{"/api/v1/search", "{\"keyword\":\"a\"", 400, "core: invalid request body: unexpected EOF"},
	{"/api/v1/search", "{\"order_by\":nulls}", 400, "core: invalid request body: invalid character 's' after object key:value pair"},
	{"/api/v1/search", "{\"friends\":" + strings.Repeat("[", deep) + strings.Repeat("]", deep) + "}", 400, "core: invalid request body: invalid character '[' exceeded max depth"},
	{"/api/v1/search", "{\"from\":\"yesterday\"}", 400, "parsing time \"yesterday\" as \"2006-01-02T15:04:05Z07:00\": cannot parse \"yesterday\" as \"2006\""},
	{"/api/v1/checkins", "", 400, "core: invalid request body: EOF"},
	{"/api/v1/checkins", "null", 400, "core: empty check-in batch"},
	{"/api/v1/checkins", "{}", 400, "core: empty check-in batch"},
	{"/api/v1/checkins", "{\"token\":\"x\",\"checkins\":null}", 400, "core: empty check-in batch"},
	{"/api/v1/checkins", "{\"token\":\"x\",\"checkins\":[]}", 400, "core: empty check-in batch"},
	{"/api/v1/checkins", "{\"checkins\":[{\"poi_id\":1,\"time\":1.5}]}", 400, "core: invalid request body: json: cannot unmarshal number 1.5 into Go struct field Checkin.checkins.time of type int64"},
	{"/api/v1/checkins", "{\"checkins\":[{\"poi_id\":1,\"tme\":1}]}", 400, "core: invalid request body: json: unknown field \"tme\""},
	{"/api/v1/checkins", "{\"checkins\":{}}", 400, "core: invalid request body: json: cannot unmarshal object into Go struct field CheckinsRequest.checkins of type []wire.Checkin"},
	{"/api/v1/checkins", "{\"checkins\":[1]}", 400, "core: invalid request body: json: cannot unmarshal number into Go struct field CheckinsRequest.checkins of type wire.Checkin"},
	{"/api/v1/checkins", "{\"checkins\":[{\"grade\":\"4\"}]}", 400, "core: invalid request body: json: cannot unmarshal string into Go struct field Checkin.checkins.grade of type float64"},
	{"/api/v1/checkins", "{\"checkins\":[{\"network\":5}]}", 400, "core: invalid request body: json: cannot unmarshal number into Go struct field Checkin.checkins.network of type string"},
	{"/api/v1/checkins", "{\"checkins\":[{\"poi_id\":-1e2}]}", 400, "core: invalid request body: json: cannot unmarshal number -1e2 into Go struct field Checkin.checkins.poi_id of type int64"},
	{"/api/v1/checkins", "{\"checkins\":[{\"time\":92233720368547758070}]}", 400, "core: invalid request body: json: cannot unmarshal number 92233720368547758070 into Go struct field Checkin.checkins.time of type int64"},
	{"/api/v1/checkins", "{\"checkins\":[{\"grade\":1e999}]}", 400, "core: invalid request body: json: cannot unmarshal number 1e999 into Go struct field Checkin.checkins.grade of type float64"},
	{"/api/v1/checkins", "{\"checkins\":[{\"poi_id\":1}],\"token\":\"bogus\",\"x\":1}", 400, "core: invalid request body: json: unknown field \"x\""},
	{"/api/v1/checkins", "{\"checkins\":[null],\"token\":\"bogus\"}", 401, "social: invalid access token"},
	{"/api/v1/checkins", "{\"Checkins\":[{\"POI_ID\":1,\"TIME\":5}],\"TOKEN\":\"bogus\"}", 401, "social: invalid access token"},
	{"/api/v1/checkins", "{\"checkins\":[{\"network\":\"a\x01\"}]}", 400, "core: invalid request body: invalid character '\\x01' in string literal"},
	{"/api/v1/checkins", "{\"checkins\":[{\"poi_id\":1}]", 400, "core: invalid request body: unexpected EOF"},
	{"/api/v1/checkins", "[{\"poi_id\":1}]", 400, "core: invalid request body: json: cannot unmarshal array into Go value of type wire.CheckinsRequest"},
}

// serve runs one request through the handler on the calling goroutine.
func serve(h http.Handler, method, path string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, body))
	return rec
}

// TestAPIRequestBodyEnvelopes posts each malformed body and requires the
// status and envelope message recorded for it. A complete object followed by
// garbage is still a 200, on both routes, and so is a body whose read fails
// only after a complete object; one that fails before is encoding/json's
// read-error envelope.
func TestAPIRequestBodyEnvelopes(t *testing.T) {
	p := bootPlatform(t)
	t.Cleanup(func() { p.Close() })
	h := NewHandler(p)
	for _, c := range bodyEnvelopes {
		rec := serve(h, http.MethodPost, c.path, strings.NewReader(c.body))
		var env wire.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s %.60q: %v", c.path, c.body, err)
		}
		if rec.Code != c.status || env.Error.Message != c.message {
			t.Errorf("%s %.60q: %d %q\nwant %d %q", c.path, c.body, rec.Code, env.Error.Message, c.status, c.message)
		}
	}

	_, tok, err := p.Users.SignIn("facebook", "facebook:2")
	if err != nil {
		t.Fatal(err)
	}
	poi := p.Catalog()[0]
	push := `{"token":"` + tok + `","checkins":[{"poi_id":` + strconv.FormatInt(poi.ID, 10) + `,"time":1000}]}`
	for _, c := range []struct {
		path string
		body io.Reader
	}{
		{"/api/v1/search", strings.NewReader(`{"token":"` + tok + `","limit":3} trailing`)},
		{"/api/v1/search", strings.NewReader(`{"token":"bogus","token":"` + tok + `"}{`)},
		{"/api/v1/checkins", strings.NewReader(push + ` trailing`)},
		{"/api/v1/checkins", io.MultiReader(strings.NewReader(push), iotest.ErrReader(errors.New("connection reset")))},
	} {
		if rec := serve(h, http.MethodPost, c.path, c.body); rec.Code != http.StatusOK {
			t.Errorf("%s: status %d (%s), want 200", c.path, rec.Code, rec.Body)
		}
	}
	rec := serve(h, http.MethodPost, "/api/v1/checkins",
		io.MultiReader(strings.NewReader(push[:20]), iotest.ErrReader(errors.New("connection reset"))))
	if want := `"core: invalid request body: connection reset"`; rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
		t.Errorf("read failing mid-object: %d %s, want 400 with %s", rec.Code, rec.Body, want)
	}
}

// TestRequestBodiesDoNotAlias pushes a batch and runs a search, scribbles
// over every pooled body buffer, pushes another batch with another network
// and searches with another keyword, scribbles again, then reads back what
// the first requests left behind: the first batch as stored and as queued
// for a subscriber, and the first search's cached entry, which folds in a
// new check-in at a POI carrying its keyword only while it still has that
// keyword.
func TestRequestBodiesDoNotAlias(t *testing.T) {
	cfg := testConfig()
	cfg.ResultCacheMB = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	h := NewHandler(p)
	acct, tok, err := p.Users.SignIn("facebook", "facebook:4")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := p.PubSub.Add(acct.UserID, geo.NewRect(geo.Point{Lat: -90, Lon: -180}, geo.Point{Lat: 90, Lon: 180}), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cat := p.Catalog()
	base := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	post := func(path string, v interface{}) []byte {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		rec := serve(h, http.MethodPost, path, bytes.NewReader(b))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	batch := func(first int, at time.Time, network string) []CheckinPush {
		items := make([]CheckinPush, 10)
		for i := range items {
			items[i] = CheckinPush{POIID: cat[first+i].ID, Time: at.Add(time.Duration(i) * time.Minute).UnixMilli(),
				Grade: 4, Network: network}
		}
		return items
	}
	scribble := func() {
		var held []*[]byte
		for i := 0; i < 8; i++ {
			bp := bodyBufs.Get().(*[]byte)
			b := (*bp)[:cap(*bp)]
			for j := range b {
				b[j] = 'X'
			}
			held = append(held, bp)
		}
		for _, bp := range held {
			bodyBufs.Put(bp)
		}
	}
	search := func(kw string) query.Result {
		var res query.Result
		if err := json.Unmarshal(post("/api/v1/search", wire.SearchRequest{Token: tok, Friends: []int64{acct.UserID}, Keyword: kw,
			From: base.Format(time.RFC3339), To: base.Add(24 * time.Hour).Format(time.RFC3339)}), &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	visitsAt := func(res query.Result, poi int64) int {
		for _, sp := range res.POIs {
			if sp.POI.ID == poi {
				return sp.Visits
			}
		}
		return 0
	}

	first := batch(0, base, "facebook")
	post("/api/v1/checkins", wire.CheckinsRequest{Token: tok, Checkins: first})
	keyword := cat[0].Keywords[0]
	before := search(keyword)
	scribble()
	// Outside the search's window, so the cached answer stays as it was.
	post("/api/v1/checkins", wire.CheckinsRequest{Token: tok, Checkins: batch(20, base.Add(48*time.Hour), "foursquare-and-more")})
	search("zzz-" + keyword)
	scribble()

	stored := map[int64]model.Visit{}
	if err := p.Visits.ScanAll(func(v model.Visit) bool {
		if v.UserID == acct.UserID {
			stored[v.Time] = v
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	events, _, err := p.PubSub.Poll(context.Background(), acct.UserID, sub.ID, 0, len(first), 0)
	if err != nil || len(events) != len(first) {
		t.Fatalf("subscriber polled %d events (%v), want the first batch's %d", len(events), err, len(first))
	}
	for i, it := range first {
		if v, ok := stored[it.Time]; !ok || v.Network != it.Network || v.POI.ID != it.POIID {
			t.Errorf("first batch item %d read back as %+v (found %v), pushed %+v", i, v, ok, it)
		}
		if ev := events[i]; ev.Network != it.Network || ev.POIID != it.POIID {
			t.Errorf("first batch item %d queued as network %q, POI %d; pushed %+v", i, ev.Network, ev.POIID, it)
		}
	}
	if visitsAt(before, cat[0].ID) != 1 {
		t.Fatalf("search for %q: %d visits at POI %d, want the pushed 1", keyword, visitsAt(before, cat[0].ID), cat[0].ID)
	}
	post("/api/v1/checkins", wire.CheckinsRequest{Token: tok, Checkins: []CheckinPush{
		{POIID: cat[0].ID, Time: base.Add(time.Hour).UnixMilli(), Grade: 4, Network: "facebook"}}})
	if after := search(keyword); !after.Cached || visitsAt(after, cat[0].ID) != 2 {
		t.Errorf("repeated search: cached=%v, %d visits at POI %d; want the cached entry with the new visit folded in (2)",
			after.Cached, visitsAt(after, cat[0].ID), cat[0].ID)
	}
}
