package modissense_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"modissense"
)

// TestPublicAPIEndToEnd exercises the whole platform through the public
// package only: boot, sign-in, collection, HotIn, search, trending, GPS,
// blog, event detection — the full demo flow of §4.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := modissense.DefaultConfig()
	cfg.POIs = 200
	cfg.NetworkPopulation = 300
	cfg.MeanFriends = 10
	cfg.ClassifierTrainDocs = 300
	p, err := modissense.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	_, token, err := p.Users.SignIn("facebook", "facebook:1")
	if err != nil {
		t.Fatal(err)
	}
	since := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	until := since.Add(5 * 24 * time.Hour)
	if _, err := p.Collect(since, until); err != nil {
		t.Fatal(err)
	}
	if _, err := p.UpdateHotIn(since, until); err != nil {
		t.Fatal(err)
	}

	bounds := modissense.NewRect(
		modissense.Point{Lat: 34.8, Lon: 19.3},
		modissense.Point{Lat: 41.8, Lon: 28.3},
	)
	res, err := p.Search(context.Background(), modissense.SearchRequest{
		Token:   token,
		BBox:    &bounds,
		Friends: []int64{1},
		From:    since,
		To:      until,
		OrderBy: modissense.ByInterest,
		Limit:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.POIs) == 0 || res.LatencySeconds <= 0 {
		t.Fatalf("search result = %+v", res)
	}
	trend, err := p.Trending(context.Background(), &bounds, nil, since, until, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(trend.POIs) == 0 {
		t.Fatal("trending empty")
	}

	// GPS + blog through the public facade.
	day := time.Date(2015, 5, 30, 0, 0, 0, 0, time.UTC)
	stop := p.Catalog()[0]
	var fixes []modissense.GPSFix
	for i := 0; i < 8; i++ {
		fixes = append(fixes, modissense.GPSFix{
			Lat:  stop.Lat,
			Lon:  stop.Lon,
			Time: day.Add(time.Duration(10*60+i*5) * time.Minute).UnixMilli(),
		})
	}
	if _, err := p.PushGPS(token, fixes); err != nil {
		t.Fatal(err)
	}
	blog, err := p.GenerateBlog(token, day)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(blog.Rendered, stop.Name) {
		t.Errorf("blog must mention the visited POI:\n%s", blog.Rendered)
	}
}

// TestPublicRESTHandler verifies NewHandler serves the public REST surface.
func TestPublicRESTHandler(t *testing.T) {
	cfg := modissense.DefaultConfig()
	cfg.POIs = 100
	cfg.NetworkPopulation = 200
	cfg.MeanFriends = 8
	cfg.ClassifierTrainDocs = 200
	p, err := modissense.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(modissense.NewHandler(p))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/api/v1/signin", "application/json",
		strings.NewReader(`{"network":"twitter","credentials":"twitter:9"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("signin status %d", resp.StatusCode)
	}
	var out struct {
		UserID int64  `json:"user_id"`
		Token  string `json:"token"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.UserID == 0 || out.Token == "" {
		t.Fatalf("signin response = %+v", out)
	}
}

// TestClassifierOptionConstructors checks the exported pipeline presets.
func TestClassifierOptionConstructors(t *testing.T) {
	base := modissense.BaselineClassifierOptions()
	opt := modissense.OptimizedClassifierOptions()
	if base.Bigrams || base.BNS || base.TermFrequency {
		t.Errorf("baseline must not enable optimizations: %+v", base)
	}
	if !opt.Bigrams || !opt.BNS || !opt.TermFrequency || opt.MinOccurrences < 2 {
		t.Errorf("optimized must enable every optimization: %+v", opt)
	}
}

// TestSchemaConstantsExported checks the ablation schema selectors.
func TestSchemaConstantsExported(t *testing.T) {
	cfg := modissense.DefaultConfig()
	cfg.POIs = 50
	cfg.NetworkPopulation = 100
	cfg.MeanFriends = 5
	cfg.ClassifierTrainDocs = 200
	cfg.VisitSchema = modissense.SchemaNormalized
	p, err := modissense.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Visits.Schema() != modissense.SchemaNormalized {
		t.Error("schema constant did not propagate")
	}
}
