package core

import (
	"context"
	"testing"
	"time"

	"modissense/internal/geo"
	"modissense/internal/workload"
)

// TestSimulatedTimeIsOwnWorkOnly pins that simulated time is a function of
// the request's own work. Event detection and searches used to schedule on
// one shared cluster: a detection left its tasks' busy nodes behind, so the
// same search on the same data answered 0.010 s before it and 0.26 s after
// it, and a detection reported the absolute cluster clock, which grew with
// every request the server had served (0.38 s fresh, 3.06 s 200 searches on).
func TestSimulatedTimeIsOwnWorkOnly(t *testing.T) {
	p := bootPlatform(t)
	acct, tok, err := p.Users.SignIn("facebook", "facebook:9")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Collect(collectWindow.since, collectWindow.until); err != nil {
		t.Fatal(err)
	}
	start := time.Date(2015, 5, 30, 20, 0, 0, 0, time.UTC)
	gathering := workload.GenGathering(newRng(10), geo.Point{Lat: 37.0, Lon: 25.5}, 400, 40, start, start.Add(3*time.Hour))
	if _, err := p.PushGPS(tok, gathering); err != nil {
		t.Fatal(err)
	}
	search := func() float64 {
		t.Helper()
		res, err := p.Search(context.Background(), SearchRequest{
			Token: tok, Friends: []int64{acct.UserID}, From: collectWindow.since, To: collectWindow.until, Limit: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached || res.Work.RowsScanned == 0 {
			t.Fatalf("the search must scan: cached=%v rows=%d", res.Cached, res.Work.RowsScanned)
		}
		return res.LatencySeconds
	}
	// A filter radius this small keeps every trace although each detection
	// adds its event's POI, so every detection clusters the same points.
	detect := func() float64 {
		t.Helper()
		res, err := p.DetectEvents(context.Background(), EventDetectionParams{Eps: 120, MinPts: 10, POIFilterRadius: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		if res.TracesScanned != len(gathering) || res.TracesClustered == 0 || res.SimulatedSeconds <= 0 {
			t.Fatalf("detection = %+v", res)
		}
		return res.SimulatedSeconds
	}

	before := search()
	first := detect()
	if after := search(); after != before {
		t.Errorf("search latency %g s before an event detection, %g s after it", before, after)
	}
	if second := detect(); second != first {
		t.Errorf("back-to-back detections report %g s and %g s", first, second)
	}
	for i := 0; i < 200; i++ {
		search()
	}
	if later := detect(); later != first {
		t.Errorf("detection makespan %g s on a fresh platform, %g s after 200 searches", first, later)
	}
}
