package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"modissense/internal/admit"
	"modissense/internal/faultinject"
	"modissense/internal/matview"
	"modissense/internal/model"
	"modissense/internal/wire"
)

// newIngestClient boots a platform with a mutated config and wraps it in the
// API test client.
func newIngestClient(t *testing.T, mutate func(*Config)) (*apiClient, *Platform) {
	t.Helper()
	cfg := testConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	srv := httptest.NewServer(NewHandler(p))
	t.Cleanup(srv.Close)
	return &apiClient{t: t, srv: srv}, p
}

func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func decodeJSONBody(t *testing.T, resp *http.Response, out interface{}) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestAPICheckinsBatch drives the batched ingest endpoint: valid items are
// stored through one batch write, invalid items come back as per-item errors
// with their batch index, and the usual envelope contract covers the
// request-level failures.
func TestAPICheckinsBatch(t *testing.T) {
	c, p := newIngestClient(t, nil)
	in := c.signIn("facebook", "facebook:3")
	poi := p.Catalog()[0]

	var res wire.BatchResult
	code := c.post("/api/v1/checkins", wire.CheckinsRequest{
		Token: in.Token,
		Checkins: []CheckinPush{
			{POIID: poi.ID, Time: 1000, Grade: 4, Network: "facebook"},
			{POIID: 999999, Time: 2000, Network: "facebook"},
			{POIID: poi.ID, Time: 3000, Grade: 3.5, Network: "twitter"},
			{POIID: poi.ID, Time: -5, Network: "facebook"},
			{POIID: poi.ID, Time: 4000, Grade: 9, Network: "facebook"},
		},
	}, &res)
	if code != http.StatusOK {
		t.Fatalf("checkins status = %d, want 200", code)
	}
	if res.Stored != 2 {
		t.Errorf("stored = %d, want 2", res.Stored)
	}
	if len(res.Errors) != 3 {
		t.Fatalf("item errors = %+v, want 3", res.Errors)
	}
	wantErrs := map[int]string{1: "not_found", 3: "bad_request", 4: "bad_request"}
	for _, e := range res.Errors {
		if wantErrs[e.Index] != e.Code {
			t.Errorf("item %d error code = %q (%s), want %q", e.Index, e.Code, e.Message, wantErrs[e.Index])
		}
		if e.Message == "" {
			t.Errorf("item %d error has no message", e.Index)
		}
	}

	// The stored items are immediately visible on the user's visit scan.
	var got []model.Visit
	if err := p.Visits.ScanAll(func(v model.Visit) bool {
		if v.UserID == in.UserID {
			got = append(got, v)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("scanned %d visits, want the 2 stored check-ins", len(got))
	}
	for _, v := range got {
		if v.POI.ID != poi.ID || v.UserID != in.UserID {
			t.Errorf("stored visit = %+v, want poi %d / user %d", v, poi.ID, in.UserID)
		}
	}

	// Request-level failures keep the envelope contract.
	var env wire.ErrorEnvelope
	if code := c.post("/api/v1/checkins", wire.CheckinsRequest{Token: "bogus",
		Checkins: []CheckinPush{{POIID: poi.ID, Time: 1}}}, &env); code != http.StatusUnauthorized {
		t.Errorf("bad token status = %d, want 401", code)
	}
	if code := c.post("/api/v1/checkins", wire.CheckinsRequest{Token: in.Token}, &env); code != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", code)
	}
	resp, err := http.Post(c.srv.URL+"/api/v1/checkins", "application/json", strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d, want 400", resp.StatusCode)
	}
}

// TestPushCheckinsRejectsNaNGrade: JSON cannot carry a NaN, but a Go caller
// of PushCheckins can. A NaN grade fails every ordered comparison, so a range
// check written as "below 0 or above 5" lets it through; it must be rejected
// as a bad item like any other out-of-range grade, and leave no row.
func TestPushCheckinsRejectsNaNGrade(t *testing.T) {
	_, p := newIngestClient(t, nil)
	acct, token, err := p.Users.SignIn("facebook", "facebook:3")
	if err != nil {
		t.Fatal(err)
	}
	poi := p.Catalog()[0]
	stored, itemErrs, err := p.PushCheckins(token, []CheckinPush{
		{POIID: poi.ID, Time: 1000, Grade: 4, Network: "facebook"},
		{POIID: poi.ID, Time: 2000, Grade: math.NaN(), Network: "facebook"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stored != 1 || len(itemErrs) != 1 || itemErrs[0].Index != 1 || itemErrs[0].Code != codeBadRequest {
		t.Fatalf("push stored %d with item errors %+v, want 1 stored and item 1 a bad_request", stored, itemErrs)
	}
	if err := p.Visits.ScanAll(func(v model.Visit) bool {
		if v.UserID == acct.UserID && math.IsNaN(v.Grade) {
			t.Errorf("a NaN grade was stored: %+v", v)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPushCheckinsStoresFarFutureTimes: a row key holds every int64 time in
// order, so a check-in at any positive time is stored and read back, the
// largest included. A time of 0 or less is still a bad item and leaves no
// row.
func TestPushCheckinsStoresFarFutureTimes(t *testing.T) {
	_, p := newIngestClient(t, nil)
	acct, token, err := p.Users.SignIn("facebook", "facebook:3")
	if err != nil {
		t.Fatal(err)
	}
	poi := p.Catalog()[0]
	stored, itemErrs, err := p.PushCheckins(token, []CheckinPush{
		{POIID: poi.ID, Time: 15_000_000_000_000, Grade: 4, Network: "facebook"},
		{POIID: poi.ID, Time: math.MaxInt64, Grade: 4, Network: "facebook"},
		{POIID: poi.ID, Time: 0, Grade: 4, Network: "facebook"},
		{POIID: poi.ID, Time: math.MinInt64, Grade: 4, Network: "facebook"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stored != 2 || len(itemErrs) != 2 || itemErrs[0].Index != 2 || itemErrs[1].Index != 3 ||
		itemErrs[0].Code != codeBadRequest || itemErrs[1].Code != codeBadRequest {
		t.Fatalf("push stored %d with item errors %+v, want 2 stored and items 2 and 3 bad_request", stored, itemErrs)
	}
	var got []int64
	if err := p.Visits.ScanAll(func(v model.Visit) bool {
		if v.UserID == acct.UserID {
			got = append(got, v.Time)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int64{15_000_000_000_000, math.MaxInt64}; !reflect.DeepEqual(got, want) {
		t.Errorf("the user's stored visit times are %v, want %v", got, want)
	}
}

// TestAPICheckinsShedsOnPressure pins the backpressure contract: when the
// store's write pressure is at the stall point, the write class answers 503
// with code "overloaded" and a Retry-After hint, before any work runs.
func TestAPICheckinsShedsOnPressure(t *testing.T) {
	c, p := newIngestClient(t, nil)
	in := c.signIn("facebook", "facebook:3")
	poi := p.Catalog()[0]

	pressure := 1.0
	p.Admission = admit.NewController(admit.Config{
		MemPressure: func() float64 { return pressure },
	})
	body := wire.CheckinsRequest{Token: in.Token, Checkins: []CheckinPush{{POIID: poi.ID, Time: 1000}}}

	resp, err := http.Post(c.srv.URL+"/api/v1/checkins", "application/json", strings.NewReader(mustJSON(t, body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pressured checkins status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive backoff hint", ra)
	}
	var env wire.ErrorEnvelope
	decodeJSONBody(t, resp, &env)
	if env.Error.Code != "overloaded" || !strings.Contains(env.Error.Message, admit.ReasonPressure) {
		t.Errorf("envelope = %+v, want overloaded/pressure", env)
	}

	// Pressure gates only the write class; a search still runs.
	var out wire.ErrorEnvelope
	if code := c.post("/api/v1/search", wire.SearchRequest{Token: in.Token, Limit: 1}, &out); code != http.StatusOK {
		t.Errorf("search under write pressure status = %d, want 200", code)
	}

	// Draining pressure reopens ingest.
	pressure = 0
	var res wire.BatchResult
	if code := c.post("/api/v1/checkins", body, &res); code != http.StatusOK || res.Stored != 1 {
		t.Errorf("post-drain checkins = %d/%+v, want 200 with 1 stored", code, res)
	}
}

// TestDurableCheckinsSurviveReboot: a platform booted with a WAL dir replays
// pushed check-ins after a restart, and check-ins pushed after it at the very
// user and milliseconds of replayed ones are new rows beside them (the row
// sequence used to restart at zero and such a push overwrote its twin).
func TestDurableCheckinsSurviveReboot(t *testing.T) {
	walDir := t.TempDir()
	mutate := func(cfg *Config) {
		cfg.WALDir = walDir
		cfg.WALSync = "group"
	}
	c, p := newIngestClient(t, mutate)
	in := c.signIn("facebook", "facebook:3")
	poi := p.Catalog()[0]
	var res wire.BatchResult
	if code := c.post("/api/v1/checkins", wire.CheckinsRequest{Token: in.Token, Checkins: []CheckinPush{
		{POIID: poi.ID, Time: 1000, Grade: 5, Network: "facebook"},
		{POIID: poi.ID, Time: 2000, Grade: 4, Network: "facebook"},
	}}, &res); code != http.StatusOK || res.Stored != 2 {
		t.Fatalf("checkins = %d/%+v", code, res)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig()
	mutate(&cfg)
	re, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	count := 0
	if err := re.Visits.ScanAll(func(v model.Visit) bool {
		if v.UserID == in.UserID {
			count++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("replayed %d check-ins after reboot, want 2", count)
	}
	_, token, err := re.Users.SignIn("facebook", "facebook:3")
	if err != nil {
		t.Fatal(err)
	}
	if n, _, err := re.PushCheckins(token, []CheckinPush{
		{POIID: poi.ID, Time: 1000, Grade: 3, Network: "facebook"},
		{POIID: poi.ID, Time: 2000, Grade: 2, Network: "facebook"},
	}); err != nil || n != 2 {
		t.Fatalf("push after reboot stored %d (%v), want 2", n, err)
	}
	var grades float64
	count = 0
	if err := re.Visits.ScanAll(func(v model.Visit) bool {
		if v.UserID == in.UserID {
			count++
			grades += v.Grade
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 4 || grades != 5+4+3+2 {
		t.Fatalf("table holds %d check-ins with grades summing to %g after the second push, want 4 and 14", count, grades)
	}
}

// TestRejectedCheckinsLeaveNoTrace: on a durable platform with replicas and
// failover, an op=put fault schedule drives both nodes down (the second has
// no live replica left to promote, so its regions stay unavailable) while a
// client keeps pushing batches. Every push is answered 200, 500 (the
// injected fault) or 503 + Retry-After (primary down); whatever was not
// answered 200 was neither logged nor applied, so after a reboot over the
// same WALDir the table holds exactly the sum of `stored` over the 200
// answers and the trending view's totals match it — retrying a 503 is safe.
func TestRejectedCheckinsLeaveNoTrace(t *testing.T) {
	walDir := t.TempDir()
	mutate := func(cfg *Config) {
		cfg.WALDir = walDir
		cfg.Nodes = 2
		cfg.ReadReplicas = 1
		cfg.FailoverEnabled = true
	}
	c, p := newIngestClient(t, mutate)
	base := time.Date(2015, 6, 1, 12, 0, 0, 0, time.UTC)
	poi := p.Catalog()[0]
	var tokens []string
	for i := 1; i <= 8; i++ {
		tokens = append(tokens, c.signIn("facebook", fmt.Sprintf("facebook:%d", i)).Token)
	}
	pushes, stored, unavailable := 0, 0, 0
	push := func() int {
		pushes++
		items := make([]CheckinPush, 3)
		for i := range items {
			items[i] = CheckinPush{POIID: poi.ID, Time: base.Add(time.Duration(pushes*3+i) * time.Second).UnixMilli(), Grade: 4, Network: "facebook"}
		}
		body := mustJSON(t, wire.CheckinsRequest{Token: tokens[pushes%len(tokens)], Checkins: items})
		resp, err := http.Post(c.srv.URL+"/api/v1/checkins", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			var res wire.BatchResult
			decodeJSONBody(t, resp, &res)
			stored += res.Stored
		case http.StatusServiceUnavailable:
			unavailable++
			if resp.Header.Get("Retry-After") == "" {
				t.Error("503 from /checkins without a Retry-After hint")
			}
		case http.StatusInternalServerError:
		default:
			t.Fatalf("push %d answered %d", pushes, resp.StatusCode)
		}
		return resp.StatusCode
	}
	for i := 0; i < 16; i++ {
		if code := push(); code != http.StatusOK {
			t.Fatalf("healthy push answered %d", code)
		}
	}
	table := p.Visits.Table()
	table.SetFaultInjector(faultinject.New(faultinject.Schedule{Seed: 1, Rules: []faultinject.Rule{
		{Fault: faultinject.Crash, Op: faultinject.OpPut, Node: faultinject.Any, Region: faultinject.Any, Replica: faultinject.Any},
	}}))
	for i := 0; i < 400 && unavailable < 8; i++ {
		if code := push(); code == http.StatusOK {
			t.Fatal("a push was acknowledged under an always-failing put schedule")
		}
	}
	if unavailable < 8 {
		t.Fatalf("only %d of %d pushes were answered 503; the schedule never held a primary down", unavailable, pushes)
	}
	if err := table.WaitFailover(context.Background()); err != nil {
		t.Fatal(err)
	}

	totals := func(p *Platform) (scanned, viewed int) {
		t.Helper()
		if err := p.Visits.ScanAll(func(model.Visit) bool { scanned++; return true }); err != nil {
			t.Fatal(err)
		}
		aggs, _ := p.MatView.TopK(matview.TopKSpec{FromMillis: base.Add(-time.Hour).UnixMilli(), ToMillis: base.Add(24 * time.Hour).UnixMilli()})
		for _, a := range aggs {
			viewed += a.Visits
		}
		return scanned, viewed
	}
	if scanned, viewed := totals(p); scanned != stored || viewed != stored {
		t.Errorf("live: table holds %d visits and the view %d, the 200 answers acknowledged %d", scanned, viewed, stored)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	mutate(&cfg)
	re, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if scanned, viewed := totals(re); scanned != stored || viewed != stored {
		t.Errorf("after reboot: table holds %d visits and the view %d, the 200 answers acknowledged %d (of %d pushes, %d answered 503)",
			scanned, viewed, stored, pushes, unavailable)
	}
}
