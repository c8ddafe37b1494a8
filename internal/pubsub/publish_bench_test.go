package pubsub

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"modissense/internal/geo"
)

// The matcher microbenchmarks. The memo helps when check-ins repeat a
// (point, text) between membership changes; `static` has that property
// (the registry never changes, as in the repository benchmark's `ingest`
// and `mixed`), `churn` is the other side of it: one Add + Remove between
// batches, so every batch starts with an empty memo and only repeats
// inside the batch can hit.
//
// This file calls nothing newer than Add / Remove / Publish, so copied
// next to the parent commit's pubsub.go it measures the per-check-in loop
// the batch call replaced (BenchmarkPublishLoop); BenchmarkPublishBatch,
// which needs the batch call, is in batch_test.go.

const (
	benchSubscriptions = 1000
	benchPOIs          = 800
	benchBatchLen      = 50
	benchBatches       = 64 // distinct batches cycled through
)

// benchCentres are where the repository benchmark centres its standing
// queries: a third each around Athens, around Thessaloniki and anywhere in
// Greece.
var benchCentres = []geo.Rect{
	{MinLat: 37.68, MinLon: 23.43, MaxLat: 38.28, MaxLon: 24.03},
	{MinLat: 40.34, MinLon: 22.64, MaxLat: 40.94, MaxLon: 23.24},
	{MinLat: 34.8, MinLon: 19.3, MaxLat: 41.8, MaxLon: 28.3},
}

func benchPoint(rng *rand.Rand) geo.Point {
	c := benchCentres[rng.Intn(len(benchCentres))]
	return geo.Point{
		Lat: c.MinLat + rng.Float64()*(c.MaxLat-c.MinLat),
		Lon: c.MinLon + rng.Float64()*(c.MaxLon-c.MinLon),
	}
}

// benchRegistry registers subscriptions shaped like the repository
// benchmark's: boxes of half-width 0.02–0.12° and a third of them with one
// keyword.
func benchRegistry(b *testing.B, rng *rand.Rand) *Registry {
	r := NewRegistry(Options{MaxPerUser: benchSubscriptions + 1})
	keywords := []string{"food", "culture", "nightlife", "coffee"}
	for i := 0; i < benchSubscriptions; i++ {
		p, half := benchPoint(rng), 0.02+0.1*rng.Float64()
		var kws []string
		if rng.Intn(3) == 0 {
			kws = []string{keywords[rng.Intn(len(keywords))]}
		}
		if _, err := r.Add(1, region(p.Lat-half, p.Lon-half, p.Lat+half, p.Lon+half), kws, time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// benchBatchesOf draws batches of check-ins at 800 catalog POIs by the
// repository benchmark's Zipf(1.1, 4).
func benchBatchesOf(rng *rand.Rand) [][]Checkin {
	tags := []string{"food", "culture", "nightlife", "coffee", "beach", "shopping", "sports", "hotel"}
	catalog := make([]Checkin, benchPOIs)
	for i := range catalog {
		name := fmt.Sprintf("Place %d", i+1)
		catalog[i] = Checkin{
			POIID: int64(i + 1), POIName: name, Point: benchPoint(rng), Network: "facebook",
			Text: name + " " + tags[rng.Intn(len(tags))] + " " + tags[rng.Intn(len(tags))],
		}
	}
	zipf := rand.NewZipf(rng, 1.1, 4, benchPOIs-1)
	batches := make([][]Checkin, benchBatches)
	for i := range batches {
		batches[i] = make([]Checkin, benchBatchLen)
		for j := range batches[i] {
			c := catalog[zipf.Uint64()]
			c.UserID, c.TimeMillis, c.Grade = int64(rng.Intn(6000)+1), int64(i*benchBatchLen+j), float64(rng.Intn(5)+1)
			batches[i][j] = c
		}
	}
	return batches
}

var benchSink int

// runPublishBench times publish over the batches, one b.N iteration per
// batch, and reports time and matches per check-in. With churn, one
// subscription is added and removed before every batch (inside the timed
// region: it is part of what a churning registry pays per batch).
func runPublishBench(b *testing.B, churn bool, publish func(*Registry, []Checkin) int) {
	rng := rand.New(rand.NewSource(18))
	r := benchRegistry(b, rng)
	batches := benchBatchesOf(rng)
	for _, batch := range batches { // warm: rings full, memo (if any) filled
		publish(r, batch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	matched := 0
	for i := 0; i < b.N; i++ {
		if churn {
			sub, err := r.Add(2, region(0, 0, 1, 1), nil, time.Hour)
			if err != nil {
				b.Fatal(err)
			}
			if err := r.Remove(2, sub.ID); err != nil {
				b.Fatal(err)
			}
		}
		matched += publish(r, batches[i%len(batches)])
	}
	b.StopTimer()
	benchSink += matched
	checkins := float64(b.N * benchBatchLen)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/checkins, "ns/checkin")
	b.ReportMetric(float64(matched)/checkins, "matches/checkin")
}

// BenchmarkPublishLoop publishes each batch one Publish call per check-in.
func BenchmarkPublishLoop(b *testing.B) {
	loop := func(r *Registry, batch []Checkin) int {
		n := 0
		for _, c := range batch {
			n += r.Publish(c)
		}
		return n
	}
	b.Run("static", func(b *testing.B) { runPublishBench(b, false, loop) })
	b.Run("churn", func(b *testing.B) { runPublishBench(b, true, loop) })
}
