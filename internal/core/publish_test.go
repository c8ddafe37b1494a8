package core

import (
	"context"
	"runtime/debug"
	"testing"
	"time"

	"modissense/internal/geo"
	"modissense/internal/model"
)

// publishFixture boots a platform with standing queries that match every
// catalog POI, a third of them on a keyword, and a batch of 50 check-ins at
// 8 POIs, stored once so that their documents are interned, then published
// until every ring is full: the steady state of the ingest path.
func publishFixture(tb testing.TB) (*Platform, []model.Visit) {
	tb.Helper()
	cfg := testConfig()
	cfg.SubQueueCap = 64
	p, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { p.Close() })
	everywhere := geo.Rect{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	visits := make([]model.Visit, 50)
	for i := range visits {
		poi, ok := p.POIs.Get(int64(1 + i%8))
		if !ok {
			tb.Fatalf("no POI %d", 1+i%8)
		}
		visits[i] = model.Visit{UserID: int64(1 + i), Time: int64(1_430_000_000_000 + i), Grade: 4, Network: "twitter", POI: poi}
	}
	for i := 0; i < 30; i++ {
		var keywords []string
		if i%3 == 0 && len(visits[0].POI.Keywords) > 0 {
			keywords = visits[0].POI.Keywords[:1]
		}
		if _, err := p.PubSub.Add(int64(1+i), everywhere, keywords, time.Hour); err != nil {
			tb.Fatal(err)
		}
	}
	if err := p.Visits.StoreBatch(visits); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p.publishVisits(visits)
	}
	// The keyword query "1" matches fewest check-ins; its ring is full all
	// the same.
	events, _, err := p.PubSub.Poll(context.Background(), 1, "1", 0, 0, 0)
	if err != nil || len(events) != cfg.SubQueueCap {
		tb.Fatalf("set-up: a keyword query holds %d events (%v), want a full ring of %d", len(events), err, cfg.SubQueueCap)
	}
	return p, visits
}

// TestPublishVisitsAllocs: a batch whose check-ins are all memoised, and
// whose documents are the interned ones, allocates nothing from
// publishVisits down — no check-in slice and no match text per check-in.
func TestPublishVisitsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of what is put back")
	}
	p, visits := publishFixture(t)
	// A collection would empty the pool of batches: no GC while measuring.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(20, func() { p.publishVisits(visits) }); allocs != 0 {
		t.Errorf("a memo-hit batch of %d check-ins allocates %v times, want 0", len(visits), allocs)
	}
}

// BenchmarkPublishVisits is the ingest hook's pub/sub stage on the steady
// state of publishFixture: one batch of 50 check-ins per op.
func BenchmarkPublishVisits(b *testing.B) {
	p, visits := publishFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.publishVisits(visits)
	}
}
