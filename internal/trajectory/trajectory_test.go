package trajectory

import (
	"strings"
	"testing"
	"time"

	"modissense/internal/geo"
)

var day = time.Date(2015, 5, 31, 0, 0, 0, 0, time.UTC)

// walkTrace builds a trace: dwell at a, walk, dwell at b.
func walkTrace() []Fix {
	a := geo.Point{Lat: 37.9838, Lon: 23.7275}
	b := geo.Point{Lat: 37.9715, Lon: 23.7267}
	var trace []Fix
	at := day.Add(9 * time.Hour)
	// 30 minutes around a (samples every 5 min, tiny jitter < 40 m).
	for i := 0; i < 7; i++ {
		trace = append(trace, Fix{
			Pt: geo.Point{Lat: a.Lat + float64(i%3)*1e-5, Lon: a.Lon - float64(i%2)*1e-5},
			At: at,
		})
		at = at.Add(5 * time.Minute)
	}
	// Walk south over 20 minutes: widely spaced points.
	for i := 1; i <= 4; i++ {
		f := float64(i) / 5
		trace = append(trace, Fix{
			Pt: geo.Point{Lat: a.Lat + (b.Lat-a.Lat)*f, Lon: a.Lon + (b.Lon-a.Lon)*f},
			At: at,
		})
		at = at.Add(5 * time.Minute)
	}
	// 45 minutes around b.
	for i := 0; i < 10; i++ {
		trace = append(trace, Fix{
			Pt: geo.Point{Lat: b.Lat - float64(i%2)*1e-5, Lon: b.Lon + float64(i%3)*1e-5},
			At: at,
		})
		at = at.Add(5 * time.Minute)
	}
	return trace
}

func TestDetectStayPointsFindsDwells(t *testing.T) {
	stays, err := DetectStayPoints(walkTrace(), 100, 20*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(stays) != 2 {
		t.Fatalf("found %d stay points, want 2: %+v", len(stays), stays)
	}
	a := geo.Point{Lat: 37.9838, Lon: 23.7275}
	b := geo.Point{Lat: 37.9715, Lon: 23.7267}
	if d := geo.Haversine(stays[0].Center, a); d > 50 {
		t.Errorf("first stay %.0f m from a", d)
	}
	if d := geo.Haversine(stays[1].Center, b); d > 50 {
		t.Errorf("second stay %.0f m from b", d)
	}
	if d := stays[0].Departure.Sub(stays[0].Arrival); d < 25*time.Minute {
		t.Errorf("first dwell duration %v too short", d)
	}
	if !stays[0].Departure.Before(stays[1].Arrival) {
		t.Error("stays must be time-ordered")
	}
	if stays[0].Fixes < 6 {
		t.Errorf("first stay has %d fixes", stays[0].Fixes)
	}
}

func TestDetectStayPointsNoDwell(t *testing.T) {
	// Constant movement: each fix 500 m from the previous.
	var trace []Fix
	at := day
	for i := 0; i < 20; i++ {
		trace = append(trace, Fix{
			Pt: geo.Point{Lat: 37.9 + float64(i)*0.005, Lon: 23.7},
			At: at,
		})
		at = at.Add(5 * time.Minute)
	}
	stays, err := DetectStayPoints(trace, 100, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(stays) != 0 {
		t.Errorf("moving trace produced %d stays", len(stays))
	}
}

func TestDetectStayPointsValidation(t *testing.T) {
	if _, err := DetectStayPoints(nil, 0, time.Minute); err == nil {
		t.Error("zero distance must fail")
	}
	if _, err := DetectStayPoints(nil, 100, 0); err == nil {
		t.Error("zero duration must fail")
	}
	bad := []Fix{
		{Pt: geo.Point{Lat: 1}, At: day.Add(time.Hour)},
		{Pt: geo.Point{Lat: 1}, At: day},
	}
	if _, err := DetectStayPoints(bad, 100, time.Minute); err == nil {
		t.Error("unordered trace must fail")
	}
	empty, err := DetectStayPoints(nil, 100, time.Minute)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty trace: %v, %v", empty, err)
	}
}

func TestMatchPOIs(t *testing.T) {
	stays, err := DetectStayPoints(walkTrace(), 100, 20*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	pois := []POIRef{
		{ID: 1, Name: "Syntagma Square", Pt: geo.Point{Lat: 37.9838, Lon: 23.7275}},
		{ID: 2, Name: "Acropolis", Pt: geo.Point{Lat: 37.9715, Lon: 23.7267}},
		{ID: 3, Name: "Far Away Taverna", Pt: geo.Point{Lat: 38.05, Lon: 23.80}},
	}
	visits, err := MatchPOIs(stays, pois, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(visits) != 2 {
		t.Fatalf("visits = %d", len(visits))
	}
	if !visits[0].Matched || visits[0].POI.ID != 1 {
		t.Errorf("first visit = %+v, want Syntagma", visits[0].POI)
	}
	if !visits[1].Matched || visits[1].POI.ID != 2 {
		t.Errorf("second visit = %+v, want Acropolis", visits[1].POI)
	}
	// Nearest wins when multiple POIs are within range.
	near := []POIRef{
		{ID: 10, Name: "Near", Pt: geo.Point{Lat: stays[0].Center.Lat + 2e-5, Lon: stays[0].Center.Lon}},
		{ID: 11, Name: "Nearer", Pt: stays[0].Center},
	}
	visits, err = MatchPOIs(stays[:1], near, 500)
	if err != nil {
		t.Fatal(err)
	}
	if visits[0].POI.ID != 11 {
		t.Errorf("nearest POI must win, got %+v", visits[0].POI)
	}
	// Unmatched stays are kept with Matched=false.
	visits, err = MatchPOIs(stays, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range visits {
		if v.Matched {
			t.Error("visit matched against empty catalog")
		}
	}
	if _, err := MatchPOIs(stays, pois, 0); err == nil {
		t.Error("zero radius must fail")
	}
}

func buildTestBlog(t *testing.T) *Blog {
	t.Helper()
	stays, err := DetectStayPoints(walkTrace(), 100, 20*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	pois := []POIRef{
		{ID: 1, Name: "Syntagma Square", Pt: geo.Point{Lat: 37.9838, Lon: 23.7275}},
		{ID: 2, Name: "Acropolis", Pt: geo.Point{Lat: 37.9715, Lon: 23.7267}},
	}
	visits, err := MatchPOIs(stays, pois, 150)
	if err != nil {
		t.Fatal(err)
	}
	return BuildBlog(42, day, visits)
}

func TestBlogBuildAndRender(t *testing.T) {
	b := buildTestBlog(t)
	if b.UserID != 42 || len(b.Entries) != 2 {
		t.Fatalf("blog = %+v", b)
	}
	out := b.Render()
	if !strings.Contains(out, "Syntagma Square") || !strings.Contains(out, "Acropolis") {
		t.Errorf("render missing POIs:\n%s", out)
	}
	if strings.Index(out, "Syntagma") > strings.Index(out, "Acropolis") {
		t.Error("entries must render in arrival order")
	}
	b.Entries[0].Comment = "coffee with friends"
	if !strings.Contains(b.Render(), "coffee with friends") {
		t.Error("annotation missing from render")
	}
}

func TestBlogEmptyRender(t *testing.T) {
	b := BuildBlog(1, day, nil)
	if !strings.Contains(b.Render(), "No activity") {
		t.Errorf("empty blog render = %q", b.Render())
	}
}

func TestBlogUnmatchedVisitRender(t *testing.T) {
	stays, err := DetectStayPoints(walkTrace(), 100, 20*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	visits, err := MatchPOIs(stays, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	b := BuildBlog(1, day, visits)
	if !strings.Contains(b.Render(), "unnamed place") {
		t.Errorf("unmatched visits must render as unnamed places:\n%s", b.Render())
	}
}
