package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"modissense/internal/matview"
	"modissense/internal/model"
	"modissense/internal/obs"
	"modissense/internal/wire"
)

// newTrendingClient boots a platform with the personalized result cache on
// (the trending view always is, here at its 1 h / 14 d defaults), at test
// scale.
func newTrendingClient(t *testing.T) (*apiClient, *Platform) {
	t.Helper()
	return newIngestClient(t, func(c *Config) { c.ResultCacheMB = 8 })
}

// scrapeMetrics returns the /metrics exposition.
func scrapeMetrics(t *testing.T, c *apiClient) string {
	t.Helper()
	resp, err := http.Get(c.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestAPITrendingFromView pushes check-ins through the API and reads them
// back through /trending: the ingest hook must have applied them to the view,
// and the matview metric families — the result cache's hit counter included —
// must show up on /metrics.
func TestAPITrendingFromView(t *testing.T) {
	c, p := newTrendingClient(t)
	in := c.signIn("facebook", "facebook:5")
	poi := p.Catalog()[3]
	base := time.Date(2015, 6, 1, 12, 0, 0, 0, time.UTC)
	var pushes []CheckinPush
	for i := 0; i < 6; i++ {
		pushes = append(pushes, CheckinPush{
			POIID: poi.ID, Time: base.Add(time.Duration(i) * time.Minute).UnixMilli(),
			Grade: 4, Network: "facebook",
		})
	}
	applies := obs.Default().Counter("matview_applies_total", "")
	applies0 := applies.Value()
	var res wire.BatchResult
	if code := c.post("/api/v1/checkins", wire.CheckinsRequest{Token: in.Token, Checkins: pushes}, &res); code != http.StatusOK || res.Stored != len(pushes) {
		t.Fatalf("checkins: status %d, stored %d", code, res.Stored)
	}
	if applies.Value() == applies0 {
		t.Fatal("ingest hook did not populate the view")
	}
	path := fmt.Sprintf("/api/v1/trending?hours=24&limit=5&until=%s",
		url.QueryEscape(base.Add(time.Hour).Format(time.RFC3339)))
	var trending struct {
		POIs []struct {
			POI struct {
				ID int64 `json:"id"`
			} `json:"poi"`
			Visits int `json:"visits"`
		} `json:"pois"`
	}
	if code := c.get(path, &trending); code != http.StatusOK {
		t.Fatalf("trending status %d", code)
	}
	if len(trending.POIs) == 0 || trending.POIs[0].POI.ID != poi.ID || trending.POIs[0].Visits != len(pushes) {
		t.Fatalf("trending = %+v, want poi %d with %d visits first", trending.POIs, poi.ID, len(pushes))
	}

	// The same personalized search twice: the repeat is served by the result
	// cache, which the cache's own counters must show on /metrics.
	var repeat struct {
		Cached bool `json:"cached"`
	}
	for i := 0; i < 2; i++ {
		if code := c.post("/api/v1/search", wire.SearchRequest{Token: in.Token, Friends: []int64{in.UserID}, Limit: 5}, &repeat); code != http.StatusOK {
			t.Fatalf("search %d status %d", i, code)
		}
	}
	if !repeat.Cached {
		t.Error("repeated search not served from the result cache")
	}

	// The matview families are on /metrics.
	text := scrapeMetrics(t, c)
	for _, family := range []string{
		"matview_applies_total", "matview_buckets", "matview_reads_total",
		"matview_cache_hits_total", "matview_cache_misses_total", "matview_cache_bytes",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
	if strings.Contains(text, "\nmatview_cache_hits_total 0\n") {
		t.Error("/metrics shows no result-cache hit after a cached answer")
	}
}

// TestTrendingViewCountsVisitsNearMaxInt64 pushes check-ins through the API
// into the last buckets below math.MaxInt64, where a bucket's end is past
// the int64 range. A friendless trending window over them, served by the
// view, must count each visit as a brute-force count over the stored visits
// does.
func TestTrendingViewCountsVisitsNearMaxInt64(t *testing.T) {
	c, p := newTrendingClient(t)
	in := c.signIn("facebook", "facebook:5")
	var pushes []CheckinPush
	for i, poi := range p.Catalog()[:3] {
		for n := 0; n <= i; n++ {
			pushes = append(pushes, CheckinPush{POIID: poi.ID, Time: math.MaxInt64 - int64(1000*i+n), Grade: 4, Network: "facebook"})
		}
	}
	var res wire.BatchResult
	if code := c.post("/api/v1/checkins", wire.CheckinsRequest{Token: in.Token, Checkins: pushes}, &res); code != http.StatusOK || res.Stored != len(pushes) {
		t.Fatalf("checkins: status %d, stored %d", code, res.Stored)
	}
	from, to := int64(math.MaxInt64)-time.Hour.Milliseconds(), int64(math.MaxInt64)
	want := map[int64]int{}
	if err := p.Visits.ScanAll(func(v model.Visit) bool {
		if v.Time >= from && v.Time <= to {
			want[v.POI.ID]++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	answer, err := p.Trending(context.Background(), nil, nil, time.UnixMilli(from), time.UnixMilli(to), 10)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]int{}
	for _, sp := range answer.POIs {
		got[sp.POI.ID] = sp.Visits
	}
	if len(want) != 3 || !reflect.DeepEqual(got, want) {
		t.Errorf("the view counts %v visits by POI, the stored visits %v", got, want)
	}
}

// TestAPITrendingClampsToCoverageFloor asks for a friendless window that
// starts behind the view's coverage floor (a later check-in pushed the
// horizon past it). The answer must be the in-window visits the view still
// retains, flagged window_clamped with the floor as effective_from_millis —
// not a ranking read off the POI table's stored hotness, which knows nothing
// of the window: the table is seeded with a hotness that would betray it.
func TestAPITrendingClampsToCoverageFloor(t *testing.T) {
	c, p := newTrendingClient(t)
	in := c.signIn("facebook", "facebook:5")
	cat := p.Catalog()
	expired, retained, newest, decoy := cat[1], cat[2], cat[3], cat[4]
	base := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	day := 24 * time.Hour
	push := func(poi int64, at time.Time, n int) {
		t.Helper()
		var items []CheckinPush
		for i := 0; i < n; i++ {
			items = append(items, CheckinPush{POIID: poi, Time: at.Add(time.Duration(i) * time.Minute).UnixMilli(), Grade: 4, Network: "facebook"})
		}
		var res wire.BatchResult
		if code := c.post("/api/v1/checkins", wire.CheckinsRequest{Token: in.Token, Checkins: items}, &res); code != http.StatusOK || res.Stored != n {
			t.Fatalf("checkins: status %d, stored %d", code, res.Stored)
		}
	}
	// Both in the requested window [base+5d, base+7d); the check-in at
	// base+20d then raises the floor to base+6d, between them.
	push(expired.ID, base.Add(5*day+time.Hour), 2)
	push(retained.ID, base.Add(6*day+2*time.Hour), 3)
	push(newest.ID, base.Add(20*day), 1)
	floor := base.Add(6 * day)
	if got := p.MatView.Floor(); got != floor.UnixMilli() {
		t.Fatalf("view floor = %d, want %d", got, floor.UnixMilli())
	}
	if err := p.POIs.UpdateHotIn(decoy.ID, 1, 1); err != nil {
		t.Fatal(err)
	}

	path := fmt.Sprintf("/api/v1/trending?limit=10&from=%s&until=%s",
		url.QueryEscape(base.Add(5*day).Format(time.RFC3339)), url.QueryEscape(base.Add(7*day).Format(time.RFC3339)))
	type answer struct {
		POIs []struct {
			POI struct {
				ID int64 `json:"id"`
			} `json:"poi"`
			Visits int `json:"visits"`
		} `json:"pois"`
		WindowClamped       bool  `json:"window_clamped"`
		EffectiveFromMillis int64 `json:"effective_from_millis"`
	}
	var trending answer
	if code := c.get(path, &trending); code != http.StatusOK {
		t.Fatalf("trending status %d", code)
	}
	if !trending.WindowClamped || trending.EffectiveFromMillis != floor.UnixMilli() {
		t.Errorf("clamp not surfaced: window_clamped=%v effective_from_millis=%d, want true/%d",
			trending.WindowClamped, trending.EffectiveFromMillis, floor.UnixMilli())
	}
	if len(trending.POIs) != 1 || trending.POIs[0].POI.ID != retained.ID || trending.POIs[0].Visits != 3 {
		t.Errorf("trending = %+v, want only poi %d with its 3 retained in-window visits", trending.POIs, retained.ID)
	}

	// A window wholly behind the floor is an empty, flagged answer.
	path = fmt.Sprintf("/api/v1/trending?from=%s&until=%s",
		url.QueryEscape(base.Add(4*day).Format(time.RFC3339)), url.QueryEscape(base.Add(5*day+12*time.Hour).Format(time.RFC3339)))
	var behind answer
	if code := c.get(path, &behind); code != http.StatusOK {
		t.Fatalf("trending status %d", code)
	}
	if !behind.WindowClamped || len(behind.POIs) != 0 {
		t.Errorf("window behind the floor: window_clamped=%v pois=%+v, want true and none", behind.WindowClamped, behind.POIs)
	}

	// One serving path: the view's series is on /metrics, a fallback one is not.
	if text := scrapeMetrics(t, c); !strings.Contains(text, `matview_reads_total{path="view"}`) || strings.Contains(text, `path="fallback"`) {
		t.Error(`/metrics must expose matview_reads_total{path="view"} and no path="fallback" series`)
	}
}

// TestAPITrendingEmptyWindow covers the HTTP reachability of the
// empty-window guard: an explicit from at/after until answers the uniform
// 400 envelope instead of silently scanning full history.
func TestAPITrendingEmptyWindow(t *testing.T) {
	c, _ := newTrendingClient(t)
	until := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	path := fmt.Sprintf("/api/v1/trending?from=%s&until=%s",
		url.QueryEscape(until.Add(time.Hour).Format(time.RFC3339)),
		url.QueryEscape(until.Format(time.RFC3339)))
	var env wire.ErrorEnvelope
	if code := c.get(path, &env); code != http.StatusBadRequest {
		t.Fatalf("inverted window status = %d, want 400", code)
	}
	if env.Error.Code != "bad_request" || env.Error.Message == "" {
		t.Fatalf("envelope = %+v", env)
	}
	if code := c.get("/api/v1/trending?from=not-a-time", nil); code != http.StatusBadRequest {
		t.Error("malformed from must 400")
	}
	// A valid explicit from is accepted.
	okPath := fmt.Sprintf("/api/v1/trending?from=%s&until=%s",
		url.QueryEscape(until.Add(-time.Hour).Format(time.RFC3339)),
		url.QueryEscape(until.Format(time.RFC3339)))
	if code := c.get(okPath, nil); code != http.StatusOK {
		t.Error("valid explicit from must 200")
	}
}

// TestAPITrendingMalformedBox pins the bounding-box contract of GET
// /trending: four corners that parse filter the ranking, none is no box, and
// anything else — a corner that is not a number, or fewer than four — is the
// uniform 400 envelope, not the unfiltered global ranking. /analytics/categories
// reads its box with the same code.
func TestAPITrendingMalformedBox(t *testing.T) {
	c, p := newTrendingClient(t)
	in := c.signIn("facebook", "facebook:5")
	cat := p.Catalog()
	inside, outside := cat[0], cat[1]
	for _, poi := range cat[1:] {
		if poi.Lat != inside.Lat || poi.Lon != inside.Lon {
			outside = poi
			break
		}
	}
	base := time.Date(2015, 6, 1, 12, 0, 0, 0, time.UTC)
	var res wire.BatchResult
	if code := c.post("/api/v1/checkins", wire.CheckinsRequest{Token: in.Token, Checkins: []CheckinPush{
		{POIID: inside.ID, Time: base.UnixMilli(), Grade: 4, Network: "facebook"},
		{POIID: outside.ID, Time: base.Add(time.Minute).UnixMilli(), Grade: 4, Network: "facebook"},
		{POIID: outside.ID, Time: base.Add(2 * time.Minute).UnixMilli(), Grade: 4, Network: "facebook"},
	}}, &res); code != http.StatusOK || res.Stored != 3 {
		t.Fatalf("checkins: status %d, stored %d", code, res.Stored)
	}
	window := "until=" + url.QueryEscape(base.Add(time.Hour).Format(time.RFC3339)) + "&hours=2"
	// A box of exactly the first POI's point: only it may be ranked.
	corners := fmt.Sprintf("min_lat=%g&min_lon=%g&max_lat=%g&max_lon=%g", inside.Lat, inside.Lon, inside.Lat, inside.Lon)
	var boxed, global struct {
		POIs []struct {
			POI struct {
				ID int64 `json:"id"`
			} `json:"poi"`
		} `json:"pois"`
	}
	if code := c.get("/api/v1/trending?"+window+"&"+corners, &boxed); code != http.StatusOK {
		t.Fatalf("well-formed box: status %d", code)
	}
	if len(boxed.POIs) != 1 || boxed.POIs[0].POI.ID != inside.ID {
		t.Fatalf("well-formed box ranked %+v, want only poi %d", boxed.POIs, inside.ID)
	}
	if code := c.get("/api/v1/trending?"+window, &global); code != http.StatusOK || len(global.POIs) != 2 {
		t.Fatalf("no box: status %d, ranked %+v, want both POIs", code, global.POIs)
	}
	for _, bad := range []string{
		strings.Replace(corners, fmt.Sprintf("min_lat=%g", inside.Lat), "min_lat=abc", 1), // not a number
		corners[:strings.LastIndex(corners, "&")],                                         // three corners of four
		"max_lon=23.5", // one corner
		strings.Replace(corners, fmt.Sprintf("min_lat=%g", inside.Lat), "min_lat=", 1), // empty corner
	} {
		for _, route := range []string{"/api/v1/trending?" + window + "&", "/api/v1/analytics/categories?"} {
			var env wire.ErrorEnvelope
			if code := c.get(route+bad, &env); code != http.StatusBadRequest {
				t.Errorf("GET %s%s: status %d, want 400", route, bad, code)
				continue
			}
			if env.Error.Code != "bad_request" || env.Error.Message == "" || env.Error.RequestID == "" {
				t.Errorf("GET %s%s: envelope = %+v, want bad_request with a message and request id", route, bad, env)
			}
		}
	}
}

// TestDurableBootWarmsView reboots a durable platform and checks that the
// replayed history is folded back into the view (replay predates the ingest
// hook, so New must warm it from a scan).
func TestDurableBootWarmsView(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.WALDir = dir
	p1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, token, err := p1.Users.SignIn("facebook", "facebook:2")
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2015, 6, 1, 12, 0, 0, 0, time.UTC)
	poi := p1.Catalog()[0]
	if _, _, err := p1.PushCheckins(token, []CheckinPush{
		{POIID: poi.ID, Time: base.UnixMilli(), Grade: 5, Network: "facebook"},
		{POIID: poi.ID, Time: base.Add(time.Minute).UnixMilli(), Grade: 3, Network: "facebook"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	aggs, _ := p2.MatView.TopK(matview.TopKSpec{
		FromMillis: base.Add(-time.Hour).UnixMilli(),
		ToMillis:   base.Add(time.Hour).UnixMilli(),
		Limit:      10,
	})
	found := false
	for _, a := range aggs {
		if a.POI.ID == poi.ID {
			found = true
			if a.Visits != 2 {
				t.Errorf("warmed visits = %d, want 2", a.Visits)
			}
			if a.POI.Name == "" {
				t.Error("warmed view lost POI metadata")
			}
		}
	}
	if !found {
		t.Fatal("replayed check-ins missing from the warmed view")
	}
}
