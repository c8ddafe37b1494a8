package matview

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"modissense/internal/geo"
	"modissense/internal/model"
)

// This file uses only NewHotInView, Apply and TopK, so a copy of it runs
// unchanged next to any earlier view.go: that is how the two layouts are
// compared on the same input (EXPERIMENTS.md, "Slot-indexed trending view").

const benchHourMs = int64(60 * 60 * 1000)

var topKSink int

// benchCatalog places n POIs: two fifths around Athens, one fifth around
// Thessaloniki, the rest anywhere in the country box.
func benchCatalog(rng *rand.Rand, n int) []model.POI {
	pois := make([]model.POI, n)
	for i := range pois {
		lat, lon := 34.8+7*rng.Float64(), 19.3+9*rng.Float64()
		switch i % 5 {
		case 0, 1:
			lat, lon = 37.9838+0.6*(rng.Float64()-0.5), 23.7275+0.6*(rng.Float64()-0.5)
		case 2:
			lat, lon = 40.6401+0.6*(rng.Float64()-0.5), 22.9444+0.6*(rng.Float64()-0.5)
		}
		pois[i] = model.POI{ID: int64(i + 1), Name: fmt.Sprintf("poi-%d", i+1), Lat: lat, Lon: lon,
			Keywords: []string{"food", "culture", "coffee"}[i%3 : i%3+1]}
	}
	return pois
}

// benchTopK fills a 336-bucket view with perBucket visits an hour, each at
// the POI draw picks, and times TopK over trailing 24/48/72 h windows × a
// city box, the country box and no box, limit 10 — the benchmark's trending
// mix. retained-B is the heap the filled view holds beyond its catalog.
func benchTopK(b *testing.B, pois []model.POI, perBucket int, draw func() int) {
	const hours = 336
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v, err := NewHotInView(ViewOptions{BucketMillis: benchHourMs, HorizonMillis: hours * benchHourMs})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	batch := make([]model.Visit, 50)
	for h := int64(0); h < hours; h++ {
		for n := 0; n < perBucket; n += len(batch) {
			for i := range batch {
				batch[i] = model.Visit{UserID: int64(i), POI: pois[draw()],
					Time: h*benchHourMs + rng.Int63n(benchHourMs), Grade: float64(rng.Intn(5) + 1)}
			}
			v.Apply(batch[:min(len(batch), perBucket-n)])
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)

	athens := geo.Rect{MinLat: 37.6838, MinLon: 23.4275, MaxLat: 38.2838, MaxLon: 24.0275}
	greece := geo.Rect{MinLat: 34.8, MinLon: 19.3, MaxLat: 41.8, MaxLon: 28.3}
	var specs []TopKSpec
	for _, box := range []*geo.Rect{&athens, &greece, nil} {
		for _, h := range []int64{24, 48, 72} {
			specs = append(specs, TopKSpec{BBox: box, FromMillis: (hours - h) * benchHourMs, ToMillis: hours * benchHourMs, Limit: 10})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aggs, candidates := v.TopK(specs[i%len(specs)])
		topKSink += len(aggs) + candidates
	}
	b.StopTimer()
	b.ReportMetric(retained, "retained-B")
	runtime.KeepAlive(pois)
}

// BenchmarkTopK shows both sides of the view's layout. dense is shaped like
// the repository benchmark: 800 POIs drawn Zipf, ≈ 1800 visits an hour, so
// nearly every POI has a counter in every bucket. sparse is the case a
// buckets × catalog matrix would lose: 50 000 POIs of which ≈ 50 appear per
// bucket.
func BenchmarkTopK(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		zipf := rand.NewZipf(rng, 1.1, 4, 799)
		benchTopK(b, benchCatalog(rng, 800), 1800, func() int { return int(zipf.Uint64()) })
	})
	b.Run("sparse", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		benchTopK(b, benchCatalog(rng, 50000), 50, func() int { return rng.Intn(50000) })
	})
}
