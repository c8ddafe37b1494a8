package query

import (
	"context"
	"math/rand"
	"testing"

	"modissense/internal/matview"
	"modissense/internal/model"
	"modissense/internal/repos"
)

// benchCache builds the cached state of the repository benchmark's `mixed`
// workload: a 300-user community with classifier-like (fractional) grade
// histories, and 400 live entries — 100 searchers with a fixed list of 30
// friends each, four filters apiece.
func benchCache(b *testing.B) (*fixture, *matview.ResultCache, []Spec) {
	b.Helper()
	f := newFixture(b, repos.SchemaReplicated, 4, 300)
	cache := matview.NewResultCache(32 << 20)
	wireCache(f, cache, attachView(b, f))
	rng := rand.New(rand.NewSource(11))
	from, to := window()
	box, inside, _ := halfBox(f)
	var specs []Spec
	for u := 0; u < 100; u++ {
		friends := make([]int64, 30)
		for i, p := range rng.Perm(300)[:30] {
			friends[i] = int64(p + 1)
		}
		for _, s := range []Spec{
			{Limit: 10},
			{Limit: 10, OrderBy: ByHotness},
			{Limit: 10, BBox: &box},
			{Limit: 10, Keyword: inside.Keywords[0], OrderBy: ByHotness},
		} {
			s.FriendIDs, s.FromMillis, s.ToMillis = friends, from, to
			specs = append(specs, s)
			if res := mustRun(b, f, s); res.Cached {
				b.Fatal("benchmark spec repeated")
			}
		}
	}
	if cache.Len() != len(specs) {
		b.Fatalf("cache holds %d entries, want %d", cache.Len(), len(specs))
	}
	return f, cache, specs
}

// BenchmarkResultCacheApply measures what a check-in push costs the writer
// in the cache: one five-visit batch by one community member announced and
// folded into every entry listing them (about forty of the four hundred).
func BenchmarkResultCacheApply(b *testing.B) {
	f, cache, _ := benchCache(b)
	rng := rand.New(rand.NewSource(12))
	from, to := window()
	batches := make([][]model.Visit, 64)
	for i := range batches {
		writer := int64(rng.Intn(300) + 1)
		for j := 0; j < 5; j++ {
			batches[i] = append(batches[i], model.Visit{
				UserID: writer, Time: from + rng.Int63n(to-from), Grade: float64(rng.Intn(5) + 1),
				Network: "facebook", POI: f.pois[rng.Intn(len(f.pois))],
			})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := batches[i%len(batches)]
		cache.Announce(batch)
		cache.Apply(batch)
	}
	b.StopTimer()
	if cache.Len() != 400 {
		b.Fatalf("%d of 400 entries survived the patches", cache.Len())
	}
}

// BenchmarkCachedHit measures a search answered from the cache: clean, the
// ranking is current; dirty, a friend checked in since the last hit and the
// ranking is re-derived from the entry's candidates first.
func BenchmarkCachedHit(b *testing.B) {
	f, cache, specs := benchCache(b)
	ctx := context.Background()
	from, _ := window()
	for _, dirty := range []bool{false, true} {
		name := "clean"
		if dirty {
			name = "dirty"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spec := specs[i%len(specs)]
				if dirty {
					b.StopTimer()
					v := []model.Visit{{UserID: spec.FriendIDs[0], Time: from + int64(i), Grade: 3, Network: "facebook", POI: f.pois[i%len(f.pois)]}}
					cache.Announce(v)
					cache.Apply(v)
					b.StartTimer()
				}
				res, err := f.engine.Run(ctx, spec)
				if err != nil || !res.Cached {
					b.Fatalf("run = %v, cached = %v; want a hit", err, res != nil && res.Cached)
				}
			}
		})
	}
}
