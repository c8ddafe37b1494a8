package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"modissense/internal/geo"
	"modissense/internal/model"
	"modissense/internal/wire"
	"modissense/internal/workload"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

type apiClient struct {
	t   *testing.T
	srv *httptest.Server
}

func newAPIClient(t *testing.T) (*apiClient, *Platform) {
	t.Helper()
	p := bootPlatform(t)
	srv := httptest.NewServer(NewHandler(p))
	t.Cleanup(srv.Close)
	return &apiClient{t: t, srv: srv}, p
}

func (c *apiClient) post(path string, body interface{}, out interface{}) int {
	c.t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.Post(c.srv.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func (c *apiClient) get(path string, out interface{}) int {
	c.t.Helper()
	resp, err := http.Get(c.srv.URL + path)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func (c *apiClient) signIn(network, creds string) wire.Session {
	c.t.Helper()
	var out wire.Session
	if code := c.post("/api/v1/signin", wire.SignInRequest{Network: network, Credentials: creds}, &out); code != http.StatusOK {
		c.t.Fatalf("signin status %d", code)
	}
	return out
}

func TestAPISignInLinkFriends(t *testing.T) {
	c, _ := newAPIClient(t)
	in := c.signIn("facebook", "facebook:3")
	if in.Token == "" || in.UserID == 0 {
		t.Fatalf("signin = %+v", in)
	}
	// Bad credentials are rejected.
	var apiErr wire.ErrorEnvelope
	if code := c.post("/api/v1/signin", wire.SignInRequest{Network: "facebook", Credentials: "nope"}, &apiErr); code != http.StatusUnauthorized {
		t.Errorf("bad creds status = %d", code)
	}
	if apiErr.Error.Message == "" || apiErr.Error.Code != "unauthorized" {
		t.Errorf("error envelope = %+v", apiErr)
	}
	// Link twitter.
	var linked wire.Session
	if code := c.post("/api/v1/link", wire.LinkRequest{Token: in.Token, Network: "twitter", Credentials: "twitter:3"}, &linked); code != http.StatusOK {
		t.Fatalf("link status %d", code)
	}
	if len(linked.Networks) != 2 {
		t.Errorf("networks = %v", linked.Networks)
	}
	// Friends across both networks.
	var friends []model.Friend
	if code := c.get("/api/v1/friends?token="+in.Token, &friends); code != http.StatusOK {
		t.Fatalf("friends status %d", code)
	}
	if len(friends) == 0 {
		t.Error("no friends returned")
	}
	var fbOnly []model.Friend
	if code := c.get("/api/v1/friends?token="+in.Token+"&network=facebook", &fbOnly); code != http.StatusOK {
		t.Fatal("friends filter failed")
	}
	for _, f := range fbOnly {
		if f.Network != "facebook" {
			t.Error("network filter leaked")
		}
	}
	if code := c.get("/api/v1/friends?token=bogus", nil); code != http.StatusUnauthorized {
		t.Errorf("bogus token status = %d", code)
	}
}

func TestAPICollectSearchTrending(t *testing.T) {
	c, p := newAPIClient(t)
	in := c.signIn("facebook", "facebook:1")

	// Admin: collect one week.
	window := wire.WindowRequest{
		Since: collectWindow.since.Format(time.RFC3339),
		Until: collectWindow.until.Format(time.RFC3339),
	}
	var collectOut map[string]interface{}
	if code := c.post("/api/v1/admin/collect", window, &collectOut); code != http.StatusOK {
		t.Fatalf("collect status %d: %v", code, collectOut)
	}
	// Admin: hotin.
	if code := c.post("/api/v1/admin/hotin", window, nil); code != http.StatusOK {
		t.Fatal("hotin failed")
	}

	// Personalized search over the collected user's own id (a friend set
	// guaranteed to have visits).
	bounds := workload.GreeceBounds()
	search := wire.SearchRequest{
		Token:  in.Token,
		MinLat: bounds.MinLat, MinLon: bounds.MinLon,
		MaxLat: bounds.MaxLat, MaxLon: bounds.MaxLon,
		Friends: []int64{1},
		From:    collectWindow.since.Format(time.RFC3339),
		To:      collectWindow.until.Format(time.RFC3339),
		OrderBy: "interest",
		Limit:   5,
	}
	var result struct {
		POIs []struct {
			POI    model.POI `json:"poi"`
			Score  float64   `json:"score"`
			Visits int       `json:"visits"`
		} `json:"pois"`
		Latency float64 `json:"latency_seconds"`
	}
	if code := c.post("/api/v1/search", search, &result); code != http.StatusOK {
		t.Fatalf("search status %d", code)
	}
	if len(result.POIs) == 0 || result.Latency <= 0 {
		t.Fatalf("search result = %+v", result)
	}
	// POI detail endpoint.
	var poi model.POI
	if code := c.get(fmt.Sprintf("/api/v1/pois/%d", result.POIs[0].POI.ID), &poi); code != http.StatusOK {
		t.Fatal("poi endpoint failed")
	}
	if poi.ID != result.POIs[0].POI.ID {
		t.Error("poi mismatch")
	}
	if code := c.get("/api/v1/pois/999999999", nil); code != http.StatusNotFound {
		t.Error("missing poi must 404")
	}
	if code := c.get("/api/v1/pois/abc", nil); code != http.StatusBadRequest {
		t.Error("bad poi id must 400")
	}

	// Trending with explicit window end.
	path := fmt.Sprintf("/api/v1/trending?min_lat=%f&min_lon=%f&max_lat=%f&max_lon=%f&hours=168&limit=3&until=%s",
		bounds.MinLat, bounds.MinLon, bounds.MaxLat, bounds.MaxLon,
		collectWindow.until.Format(time.RFC3339))
	var trending struct {
		POIs []struct {
			POI model.POI `json:"poi"`
		} `json:"pois"`
	}
	if code := c.get(path, &trending); code != http.StatusOK {
		t.Fatalf("trending failed")
	}
	if len(trending.POIs) == 0 {
		t.Error("trending returned nothing")
	}
	// Invalid search body.
	if code := c.post("/api/v1/search", map[string]int{"bogus": 1}, nil); code != http.StatusBadRequest {
		t.Error("unknown fields must 400")
	}
	// Invalid trending params.
	if code := c.get("/api/v1/trending?hours=-1", nil); code != http.StatusBadRequest {
		t.Error("negative hours must 400")
	}
	_ = p
}

func TestAPIGPSAndBlog(t *testing.T) {
	c, p := newAPIClient(t)
	in := c.signIn("foursquare", "foursquare:4")
	day := time.Date(2015, 5, 30, 0, 0, 0, 0, time.UTC)
	fixes := workload.GenGPSDay(newRng(11), 0, day, p.Catalog()[:3], 5*time.Minute, 40*time.Minute)
	var stored map[string]int
	if code := c.post("/api/v1/gps", wire.GPSRequest[model.GPSFix]{Token: in.Token, Fixes: fixes}, &stored); code != http.StatusOK {
		t.Fatalf("gps push failed")
	}
	if stored["stored"] != len(fixes) {
		t.Errorf("stored = %v", stored)
	}
	// Generate the blog.
	var blog struct {
		ID       int64  `json:"id"`
		Rendered string `json:"rendered"`
	}
	if code := c.post("/api/v1/blog/generate", wire.BlogRequest{Token: in.Token, Date: "2015-05-30"}, &blog); code != http.StatusOK {
		t.Fatalf("blog generate failed")
	}
	if blog.ID == 0 || blog.Rendered == "" {
		t.Fatalf("blog = %+v", blog)
	}
	// Fetch it back.
	blogs := fmt.Sprintf("/api/v1/users/%d/blogs", in.UserID)
	if code := c.get(blogs+"/2015-05-30?token="+in.Token, &blog); code != http.StatusOK {
		t.Fatal("blog get failed")
	}
	if code := c.get(blogs+"/2015-06-01?token="+in.Token, nil); code != http.StatusNotFound {
		t.Error("missing blog must 404")
	}
	if code := c.post("/api/v1/blog/generate", wire.BlogRequest{Token: in.Token, Date: "not-a-date"}, nil); code != http.StatusBadRequest {
		t.Error("bad date must 400")
	}
	if code := c.post("/api/v1/gps", wire.GPSRequest[model.GPSFix]{Token: "bogus"}, nil); code != http.StatusUnauthorized {
		t.Error("bad token must 401")
	}
}

func TestAPIEventDetection(t *testing.T) {
	c, p := newAPIClient(t)
	in := c.signIn("twitter", "twitter:8")
	b := workload.GreeceBounds()
	center := geo.Point{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
	start := time.Date(2015, 5, 30, 20, 0, 0, 0, time.UTC)
	fixes := workload.GenGathering(newRng(12), center, 120, 40, start, start.Add(2*time.Hour))
	if code := c.post("/api/v1/gps", wire.GPSRequest[model.GPSFix]{Token: in.Token, Fixes: fixes}, nil); code != http.StatusOK {
		t.Fatal("gps push failed")
	}
	var out struct {
		TracesScanned int         `json:"TracesScanned"`
		NewPOIs       []model.POI `json:"NewPOIs"`
	}
	if code := c.post("/api/v1/admin/events", wire.EventsRequest{EpsMeters: 120, MinPts: 10}, &out); code != http.StatusOK {
		t.Fatal("event detection failed")
	}
	if out.TracesScanned != 120 {
		t.Errorf("scanned %d", out.TracesScanned)
	}
	_ = p
	if code := c.post("/api/v1/admin/events", wire.EventsRequest{}, nil); code != http.StatusBadRequest {
		t.Error("invalid params must 400")
	}
}

func TestAPIStats(t *testing.T) {
	c, p := newAPIClient(t)
	in := c.signIn("facebook", "facebook:2")
	day := time.Date(2015, 5, 30, 0, 0, 0, 0, time.UTC)
	fixes := workload.GenGPSDay(newRng(13), 0, day, p.Catalog()[:2], 5*time.Minute, 30*time.Minute)
	if code := c.post("/api/v1/gps", wire.GPSRequest[model.GPSFix]{Token: in.Token, Fixes: fixes}, nil); code != http.StatusOK {
		t.Fatal("gps push failed")
	}
	var stats PlatformStats
	if code := c.get("/api/v1/stats", &stats); code != http.StatusOK {
		t.Fatal("stats failed")
	}
	if stats.POIs != 200 || stats.Accounts != 1 || stats.GPSFixes != len(fixes) {
		t.Errorf("stats = %+v", stats)
	}
	if stats.VisitRegions == 0 || stats.ClassifierVoc == 0 || stats.VisitSchema != "replicated" {
		t.Errorf("stats incomplete: %+v", stats)
	}
}

func TestAPIPipeline(t *testing.T) {
	c, _ := newAPIClient(t)
	c.signIn("facebook", "facebook:6")
	var report struct {
		Collection struct{ UsersScanned, Checkins int }
		HotIn      struct{ VisitsAggregated, POIsUpdated int }
		Events     *struct{ SimulatedSeconds float64 }
	}
	if code := c.post("/api/v1/admin/pipeline", pipelineRequest{Date: "2015-05-30", HotInWindowHours: 24}, &report); code != http.StatusOK {
		t.Fatalf("pipeline status %d", code)
	}
	// Every stage ran: one account collected, the hotness refresh over the
	// same day saw exactly the check-ins collection stored, events detected.
	if report.Collection.UsersScanned != 1 || report.Events == nil ||
		report.HotIn.VisitsAggregated != report.Collection.Checkins {
		t.Errorf("report = %+v", report)
	}
	if code := c.post("/api/v1/admin/pipeline", pipelineRequest{Date: "bad"}, nil); code != http.StatusBadRequest {
		t.Error("bad date must 400")
	}
}

func TestAPICategoryAnalytics(t *testing.T) {
	c, p := newAPIClient(t)
	var stats []map[string]interface{}
	if code := c.get("/api/v1/analytics/categories", &stats); code != http.StatusOK {
		t.Fatalf("analytics status %d", code)
	}
	if len(stats) < 5 {
		t.Fatalf("got %d categories", len(stats))
	}
	total := 0.0
	for _, s := range stats {
		total += s["pois"].(float64)
	}
	if int(total) != p.POIs.Len() {
		t.Errorf("category counts sum to %d, catalog has %d", int(total), p.POIs.Len())
	}
	// Bounding box restriction shrinks the counts.
	var boxed []map[string]interface{}
	if code := c.get("/api/v1/analytics/categories?min_lat=37.8&min_lon=23.5&max_lat=38.2&max_lon=24.0", &boxed); code != http.StatusOK {
		t.Fatal("boxed analytics failed")
	}
	boxedTotal := 0.0
	for _, s := range boxed {
		boxedTotal += s["pois"].(float64)
	}
	if boxedTotal >= total {
		t.Errorf("boxed total %v must be below global %v", boxedTotal, total)
	}
	if code := c.get("/api/v1/analytics/categories?min_lat=x&min_lon=1&max_lat=2&max_lon=3", nil); code != http.StatusBadRequest {
		t.Error("bad bbox must 400")
	}
}

func TestAPIBlogList(t *testing.T) {
	c, p := newAPIClient(t)
	in := c.signIn("facebook", "facebook:8")
	for d := 29; d <= 30; d++ {
		day := time.Date(2015, 5, d, 0, 0, 0, 0, time.UTC)
		fixes := workload.GenGPSDay(newRng(int64(50+d)), 0, day, p.Catalog()[:2], 5*time.Minute, 40*time.Minute)
		if code := c.post("/api/v1/gps", wire.GPSRequest[model.GPSFix]{Token: in.Token, Fixes: fixes}, nil); code != http.StatusOK {
			t.Fatal("gps push failed")
		}
		if code := c.post("/api/v1/blog/generate", wire.BlogRequest{Token: in.Token, Date: day.Format("2006-01-02")}, nil); code != http.StatusOK {
			t.Fatal("blog generate failed")
		}
	}
	var page struct {
		Items []map[string]interface{} `json:"items"`
	}
	path := fmt.Sprintf("/api/v1/users/%d/blogs", in.UserID)
	if code := c.get(path+"?token="+in.Token, &page); code != http.StatusOK {
		t.Fatal("blog list failed")
	}
	blogs := page.Items
	if len(blogs) != 2 {
		t.Fatalf("listed %d blogs, want 2", len(blogs))
	}
	// Newest first.
	d0 := blogs[0]["day"].(string)
	d1 := blogs[1]["day"].(string)
	if d0 <= d1 {
		t.Errorf("blogs not newest-first: %s then %s", d0, d1)
	}
	if code := c.get(path+"?token=bogus", nil); code != http.StatusUnauthorized {
		t.Error("bad token must 401")
	}
}
