package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"modissense/internal/faultinject"
	"modissense/internal/model"
	"modissense/internal/query"
)

// fishAndChips is a POI name every escape rule of the encoder touches.
const fishAndChips = "Fish & Chips <Caf\u00e9>"

// fetchAnswer sends one search (body non-nil) or trending request and checks
// the envelope of a 200 answer: status, Content-Type, a Content-Length that
// is the body's, and a body byte-identical to what json.NewEncoder writes
// for the answer it decodes to (the encoding is canonical, so any deviation
// of the hand encoder from encoding/json shows).
func fetchAnswer(t *testing.T, c *apiClient, path string, body interface{}) (*query.Result, []byte) {
	t.Helper()
	var resp *http.Response
	var err error
	if body != nil {
		resp, err = http.Post(c.srv.URL+path, "application/json", bytes.NewReader([]byte(mustJSON(t, body))))
	} else {
		resp, err = http.Get(c.srv.URL + path)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", path, ct)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(raw)) {
		t.Errorf("%s: Content-Length %q for a %d-byte body", path, cl, len(raw))
	}
	var res query.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(&res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Fatalf("%s: body is not json.Encoder's:\ngot  %s\nwant %s", path, raw, want.Bytes())
	}
	return &res, raw
}

// TestAPIResultBytes pins the search and trending bodies to encoding/json,
// byte for byte, for every answer shape the routes produce: a miss, a cached
// hit, a POI name full of HTML characters, an unlimited answer bigger than a
// pooled buffer, a clamped friendless trending answer, and a degraded one.
func TestAPIResultBytes(t *testing.T) {
	c, p := newIngestClient(t, func(c *Config) { c.ResultCacheMB = 8; c.POIs = 400 })
	in := c.signIn("facebook", "facebook:5")
	fish, err := p.POIs.Insert(model.POI{Name: fishAndChips, Lat: 37.98, Lon: 23.72, Keywords: []string{"restaurant", "fish"}})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	at := base.Add(6*24*time.Hour + 2*time.Hour)
	var pushes []CheckinPush
	for i, poi := range append(p.Catalog(), fish) {
		grade := 3.0
		if poi.ID == fish.ID {
			grade = 5
		}
		pushes = append(pushes, CheckinPush{POIID: poi.ID, Time: at.Add(time.Duration(i) * time.Second).UnixMilli(), Grade: grade, Network: "facebook"})
	}
	// The last check-in raises the view's coverage floor to base + 6 days.
	pushes = append(pushes, CheckinPush{POIID: fish.ID, Time: base.Add(20 * 24 * time.Hour).UnixMilli(), Grade: 5, Network: "facebook"})
	var stored checkinsResponse
	if code := c.post("/api/v1/checkins", checkinsRequest{Token: in.Token, Checkins: pushes}, &stored); code != http.StatusOK || stored.Stored != len(pushes) {
		t.Fatalf("checkins: status %d, stored %d of %d", code, stored.Stored, len(pushes))
	}

	search := searchJSON{Token: in.Token, Friends: []int64{in.UserID}, Limit: 5,
		From: base.Format(time.RFC3339), To: base.Add(30 * 24 * time.Hour).Format(time.RFC3339)}
	miss, raw := fetchAnswer(t, c, "/api/v1/search", search)
	if miss.Cached || len(miss.POIs) != 5 || miss.POIs[0].POI.Name != fishAndChips {
		t.Fatalf("first search: cached=%v, %d POIs, first %q; want a scan ranking %q first", miss.Cached, len(miss.POIs), miss.POIs[0].POI.Name, fishAndChips)
	}
	if bytes.ContainsAny(raw, "&<>") {
		t.Errorf("HTML characters not escaped: %s", raw)
	}
	if hit, _ := fetchAnswer(t, c, "/api/v1/search", search); !hit.Cached {
		t.Error("repeated search not served from the cache")
	}

	search.Limit = 0
	if all, raw := fetchAnswer(t, c, "/api/v1/search", search); len(raw) <= maxPooledResult || len(all.POIs) != len(p.Catalog())+1 {
		t.Errorf("unlimited search: %d bytes, %d POIs; want over %d bytes and every POI", len(raw), len(all.POIs), maxPooledResult)
	}

	floor := base.Add(6 * 24 * time.Hour)
	clamped, _ := fetchAnswer(t, c, fmt.Sprintf("/api/v1/trending?from=%s&until=%s",
		url.QueryEscape(base.Add(5*24*time.Hour).Format(time.RFC3339)), url.QueryEscape(base.Add(7*24*time.Hour).Format(time.RFC3339))), nil)
	if !clamped.WindowClamped || clamped.EffectiveFromMillis != floor.UnixMilli() || len(clamped.POIs) != 10 {
		t.Errorf("trending: window_clamped=%v effective_from_millis=%d, %d POIs; want true, %d, 10",
			clamped.WindowClamped, clamped.EffectiveFromMillis, len(clamped.POIs), floor.UnixMilli())
	}

	// Degraded: one region's reads fail on every copy.
	if err := p.Visits.Table().EnableReplication(1); err != nil {
		t.Fatal(err)
	}
	pol := query.DefaultReadPolicy()
	pol.MaxAttempts = 2
	p.Query.SetReadPolicy(&pol)
	p.Query.SetFaultInjector(faultinject.New(faultinject.Schedule{Seed: 7, Rules: []faultinject.Rule{{
		Fault: faultinject.ScanError, Node: faultinject.Any, Region: p.Visits.Table().Regions()[0].ID, Replica: faultinject.Any, Prob: 1,
	}}}))
	search.Limit = 3
	if degraded, _ := fetchAnswer(t, c, "/api/v1/search", search); !degraded.Degraded || len(degraded.MissingRegions) != 1 {
		t.Errorf("faulted search: degraded=%v missing_regions=%v; want true and one region", degraded.Degraded, degraded.MissingRegions)
	}
}

// TestWriteResult pins writeResult itself against json.NewEncoder on
// constructed answers, and its refusal of an unencodable one: the 500
// envelope, never a 200 with an empty body.
func TestWriteResult(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/api/v1/trending", nil)
	for _, res := range []*query.Result{
		{},
		{POIs: []query.ScoredPOI{{POI: model.POI{ID: 1, Name: fishAndChips, Keywords: []string{}}, Score: 1e-7, Visits: 2}},
			LatencySeconds: 1e21, Degraded: true, MissingRegions: []int{4}, FailoverInProgress: true},
		{POIs: []query.ScoredPOI{}, Cached: true, WindowClamped: true, EffectiveFromMillis: -1, MissingRegions: []int{}},
	} {
		rec := httptest.NewRecorder()
		writeResult(rec, req, res)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(res); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Errorf("writeResult = %d %q %s, want 200 application/json %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes(), want.Bytes())
		}
	}

	rec := httptest.NewRecorder()
	writeResult(rec, req, &query.Result{POIs: []query.ScoredPOI{{Score: math.NaN()}}})
	var env apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("NaN answer body %q: %v", rec.Body.Bytes(), err)
	}
	if rec.Code != http.StatusInternalServerError || env.Error.Code != codeInternal || env.Error.Message == "" {
		t.Errorf("NaN answer = %d %+v, want 500 with code %q", rec.Code, env, codeInternal)
	}
}
