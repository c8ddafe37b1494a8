package client

import (
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"modissense/internal/core"
	"modissense/internal/geo"
	"modissense/internal/model"
	"modissense/internal/workload"
)

func newServerAndClient(t *testing.T) (*Client, *core.Platform) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.POIs = 200
	cfg.NetworkPopulation = 300
	cfg.MeanFriends = 10
	cfg.ClassifierTrainDocs = 300
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(core.NewHandler(p))
	t.Cleanup(srv.Close)
	c, err := New(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, p
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", nil); err == nil {
		t.Error("empty URL must fail")
	}
	if _, err := New("ftp://nope", nil); err == nil {
		t.Error("non-http scheme must fail")
	}
	if _, err := New("http://localhost:1", nil); err != nil {
		t.Errorf("valid URL rejected: %v", err)
	}
}

func TestClientFullFlow(t *testing.T) {
	c, p := newServerAndClient(t)

	// Sign in, link, friends.
	sess, err := c.SignIn("facebook", "facebook:1")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Token == "" || c.Token() != sess.Token {
		t.Fatal("token not stored on client")
	}
	if _, err := c.Link("twitter", "twitter:1"); err != nil {
		t.Fatal(err)
	}
	friends, err := c.Friends("")
	if err != nil {
		t.Fatal(err)
	}
	if len(friends) == 0 {
		t.Fatal("no friends")
	}
	fb, err := c.Friends("facebook")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fb {
		if f.Network != "facebook" {
			t.Fatal("network filter leaked")
		}
	}

	// Admin: collect + hotin.
	since := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	until := since.Add(5 * 24 * time.Hour)
	stats, err := c.AdminCollect(since, until)
	if err != nil {
		t.Fatal(err)
	}
	if stats["Checkins"] == nil {
		t.Errorf("collect stats = %v", stats)
	}
	if _, err := c.AdminHotIn(since, until); err != nil {
		t.Fatal(err)
	}

	// Search + POI detail.
	bounds := workload.GreeceBounds()
	res, err := c.Search(SearchParams{
		MinLat: bounds.MinLat, MinLon: bounds.MinLon,
		MaxLat: bounds.MaxLat, MaxLon: bounds.MaxLon,
		Friends: []int64{1},
		From:    since, To: until,
		OrderBy: "interest",
		Limit:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.POIs) == 0 || res.LatencySeconds <= 0 {
		t.Fatalf("search = %+v", res)
	}
	poi, err := c.POI(res.POIs[0].POI.ID)
	if err != nil {
		t.Fatal(err)
	}
	if poi.ID != res.POIs[0].POI.ID {
		t.Error("POI mismatch")
	}
	if _, err := c.POI(999999999); err == nil {
		t.Error("missing POI must error with the server message")
	}

	// Trending.
	trend, err := c.Trending(bounds.MinLat, bounds.MinLon, bounds.MaxLat, bounds.MaxLon, 7*24, 3, until)
	if err != nil {
		t.Fatal(err)
	}
	if len(trend.POIs) == 0 {
		t.Error("trending empty")
	}

	// GPS + blog.
	day := time.Date(2015, 5, 30, 0, 0, 0, 0, time.UTC)
	fixes := workload.GenGPSDay(rand.New(rand.NewSource(3)), 0, day, p.Catalog()[:2], 5*time.Minute, 40*time.Minute)
	stored, err := c.PushGPS(fixes)
	if err != nil {
		t.Fatal(err)
	}
	if stored != len(fixes) {
		t.Errorf("stored %d of %d", stored, len(fixes))
	}
	blog, err := c.GenerateBlog(day)
	if err != nil {
		t.Fatal(err)
	}
	if blog.ID == 0 || blog.Rendered == "" {
		t.Fatalf("blog = %+v", blog)
	}
	got, err := c.GetBlog(day)
	if err != nil || got.ID != blog.ID {
		t.Fatalf("GetBlog = %+v, %v", got, err)
	}
	if _, err := c.GetBlog(day.Add(72 * time.Hour)); err == nil {
		t.Error("missing blog must error")
	}
	list, err := c.Blogs()
	if err != nil || len(list) != 1 || list[0].ID != blog.ID {
		t.Fatalf("Blogs() = %+v, %v", list, err)
	}

	// Stats.
	snapshot, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snapshot["pois"] == nil {
		t.Errorf("stats = %v", snapshot)
	}
}

func TestClientEventDetection(t *testing.T) {
	c, _ := newServerAndClient(t)
	if _, err := c.SignIn("twitter", "twitter:5"); err != nil {
		t.Fatal(err)
	}
	start := time.Date(2015, 5, 30, 20, 0, 0, 0, time.UTC)
	b := workload.GreeceBounds()
	center := geo.Point{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
	crowd := workload.GenGathering(rand.New(rand.NewSource(5)), center, 120, 40, start, start.Add(2*time.Hour))
	if _, err := c.PushGPS(crowd); err != nil {
		t.Fatal(err)
	}
	out, err := c.AdminDetectEvents(120, 10)
	if err != nil {
		t.Fatal(err)
	}
	if out["TracesScanned"] == nil {
		t.Errorf("detection = %v", out)
	}
	if _, err := c.AdminDetectEvents(0, 0); err == nil {
		t.Error("invalid params must error")
	}
}

func TestClientAuthErrors(t *testing.T) {
	c, _ := newServerAndClient(t)
	// Not signed in: token is empty, server rejects.
	if _, err := c.Friends(""); err == nil {
		t.Error("unauthenticated friends must fail")
	}
	if _, err := c.PushGPS([]model.GPSFix{{Lat: 1, Lon: 1}}); err == nil {
		t.Error("unauthenticated gps must fail")
	}
	if _, err := c.SignIn("facebook", "garbage"); err == nil {
		t.Error("bad credentials must fail")
	}
}
