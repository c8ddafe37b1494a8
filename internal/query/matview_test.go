package query

import (
	"context"
	"encoding/json"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modissense/internal/matview"
	"modissense/internal/model"
	"modissense/internal/obs"
	"modissense/internal/repos"
	"modissense/internal/workload"
)

// attachView installs a materialized view on the fixture's engine. The
// fixture loaded its history before the view existed, so the view is warmed
// from a scan, the way the platform does after a WAL replay.
func attachView(t testing.TB, f *fixture) *matview.HotInView {
	t.Helper()
	view, err := matview.NewHotInView(matview.ViewOptions{
		BucketMillis:  int64(time.Hour / time.Millisecond),
		HorizonMillis: int64(365 * 24 * time.Hour / time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	var history []model.Visit
	if err := f.visits.ScanAll(func(v model.Visit) bool {
		history = append(history, v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	view.Apply(history)
	f.engine.SetHotInView(view)
	return view
}

// cachedFixture wires a fixture's visit stream to a result cache and a
// materialized view through the store hook, the way core.Platform does.
func cachedFixture(t testing.TB) (*fixture, *matview.ResultCache, *matview.HotInView) {
	t.Helper()
	f := newFixture(t, repos.SchemaReplicated, 4, 40)
	cache := matview.NewResultCache(8 << 20)
	view := attachView(t, f)
	f.visits.SetOnStore(func(vs []model.Visit) {
		view.Apply(vs)
		users := make([]int64, 0, len(vs))
		for i := range vs {
			users = append(users, vs[i].UserID)
		}
		cache.Invalidate(users)
	})
	f.engine.SetResultCache(cache)
	return f, cache, view
}

// poisJSON renders a ranking for byte-level comparison.
func poisJSON(t testing.TB, pois []ScoredPOI) []byte {
	t.Helper()
	b, err := json.Marshal(pois)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResultCacheEquivalence is the cache-invalidation correctness
// property: for random specs, a cached answer is byte-identical to the
// fresh scan of the same spec, and after an invalidating friend check-in
// the next answer is recomputed and again byte-identical to an uncached
// scan that sees the new visit. Run under -race via the normal suite.
func TestResultCacheEquivalence(t *testing.T) {
	f, _, _ := cachedFixture(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	from, to := window()
	box := workload.GreeceBounds()
	const iters = 12
	// The live handles, by the names /metrics exports them under.
	mHits := obs.Default().Counter("matview_cache_hits_total", "")
	mMisses := obs.Default().Counter("matview_cache_misses_total", "")
	hits0, misses0 := mHits.Value(), mMisses.Value()
	for iter := 0; iter < iters; iter++ {
		spec := Spec{
			FriendIDs:  workload.GenFriendList(rng, 0, 40, 5+rng.Intn(10)),
			FromMillis: from,
			ToMillis:   to,
			Limit:      1 + rng.Intn(8),
		}
		if rng.Intn(2) == 0 {
			spec.BBox = &box
		}
		if rng.Intn(2) == 0 {
			spec.OrderBy = ByHotness
		}
		cold, err := f.engine.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Cached {
			t.Fatal("first run of a spec must not be cached")
		}
		warm, err := f.engine.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Cached {
			t.Fatal("second run of the same spec must hit the cache")
		}
		if warm.LatencySeconds <= 0 {
			t.Fatal("cached results must still carry a simulated latency")
		}
		if string(poisJSON(t, cold.POIs)) != string(poisJSON(t, warm.POIs)) {
			t.Fatalf("iter %d: cached ranking differs from computed one", iter)
		}

		// An invalidating write: one friend in the cached set checks in.
		friend := spec.FriendIDs[rng.Intn(len(spec.FriendIDs))]
		poi := f.pois[rng.Intn(len(f.pois))]
		if err := f.visits.Store(model.Visit{
			UserID: friend, Time: from + rng.Int63n(to-from), Grade: 5, Network: "facebook", POI: poi,
		}); err != nil {
			t.Fatal(err)
		}
		after, err := f.engine.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if after.Cached {
			t.Fatalf("iter %d: result served from cache after an invalidating check-in", iter)
		}
		uncachedSpec := spec
		uncachedSpec.NoCache = true
		uncached, err := f.engine.Run(ctx, uncachedSpec)
		if err != nil {
			t.Fatal(err)
		}
		if uncached.Cached {
			t.Fatal("NoCache run must not be served from cache")
		}
		if string(poisJSON(t, after.POIs)) != string(poisJSON(t, uncached.POIs)) {
			t.Fatalf("iter %d: post-invalidation ranking differs from the uncached scan", iter)
		}
	}
	// The exported counters account for exactly that: one hit per repeat, one
	// miss per cold and per invalidated run, nothing for a NoCache run.
	if hits, misses := mHits.Value()-hits0, mMisses.Value()-misses0; hits != iters || misses != 2*iters {
		t.Errorf("cache counters moved by %d hits / %d misses, want %d / %d", hits, misses, iters, 2*iters)
	}
}

// TestResultCacheUnrelatedWriteKeepsEntry checks invalidation precision: a
// check-in by a user outside the cached friend set must not evict.
func TestResultCacheUnrelatedWriteKeepsEntry(t *testing.T) {
	f, _, _ := cachedFixture(t)
	ctx := context.Background()
	from, to := window()
	spec := Spec{FriendIDs: friendRange(1, 5), FromMillis: from, ToMillis: to, Limit: 5}
	if _, err := f.engine.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if err := f.visits.Store(model.Visit{
		UserID: 30, Time: from + 1000, Grade: 4, Network: "facebook", POI: f.pois[0],
	}); err != nil {
		t.Fatal(err)
	}
	res, err := f.engine.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("write by a non-friend must not invalidate the cached entry")
	}
}

// TestTrendingViewMatchesScan compares the materialized-view trending path
// against a brute-force aggregation over the same window.
func TestTrendingViewMatchesScan(t *testing.T) {
	f, _, view := cachedFixture(t)
	ctx := context.Background()
	from, to := window()
	spec := Spec{FromMillis: from + (to-from)/2, ToMillis: to, Limit: 10}
	viewReads := obs.Default().Counter("matview_reads_total", "", obs.L("path", "view"))
	reads0 := viewReads.Value()
	res, err := f.engine.Trending(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if viewReads.Value() == reads0 {
		t.Fatal("trending read must be served by the view")
	}
	// Brute force over the repository, quantized the way the view is.
	bucket := view.BucketMillis()
	alignedFrom := (spec.FromMillis / bucket) * bucket
	counts := map[int64]int{}
	if err := f.visits.ScanAll(func(v model.Visit) bool {
		if v.Time >= alignedFrom && v.Time < spec.ToMillis {
			counts[v.POI.ID]++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(res.POIs) == 0 {
		t.Fatal("view trending returned nothing")
	}
	for i, p := range res.POIs {
		if counts[p.POI.ID] != p.Visits {
			t.Errorf("poi %d: view visits %d, scan %d", p.POI.ID, p.Visits, counts[p.POI.ID])
		}
		if i > 0 && res.POIs[i-1].Visits < p.Visits {
			t.Error("view trending must rank by visit volume")
		}
	}
	if res.LatencySeconds <= 0 {
		t.Error("view trending must carry a simulated latency")
	}
}

// TestTrendingWindowClamp checks the horizon clamp: an over-long
// friendless window is answered as its trailing horizon-sized suffix and
// the narrowing is surfaced on the Result, while a personalized query
// keeps its full window on the scan path.
func TestTrendingWindowClamp(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 2, 10)
	view, err := matview.NewHotInView(matview.ViewOptions{
		BucketMillis:  int64(time.Hour / time.Millisecond),
		HorizonMillis: int64(24 * time.Hour / time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.engine.SetHotInView(view)
	from, to := window()
	horizon := view.HorizonMillis()
	// Feed the view two visits: one inside the trailing horizon, one far
	// before it. The clamped window must only see the former.
	inside := model.Visit{UserID: 1, Time: to - horizon/2, Grade: 5, Network: "facebook", POI: f.pois[0]}
	outside := model.Visit{UserID: 1, Time: from, Grade: 5, Network: "facebook", POI: f.pois[1]}
	view.Apply([]model.Visit{outside, inside})
	res, err := f.engine.Trending(context.Background(), Spec{FromMillis: from, ToMillis: to, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.POIs {
		if p.POI.ID == f.pois[1].ID {
			t.Fatal("window was not clamped: pre-horizon visit surfaced")
		}
	}
	if len(res.POIs) != 1 || res.POIs[0].POI.ID != f.pois[0].ID {
		t.Fatalf("clamped trending = %+v, want only poi %d", res.POIs, f.pois[0].ID)
	}
	if !res.WindowClamped || res.EffectiveFromMillis != to-horizon {
		t.Fatalf("clamp not surfaced: clamped=%v effective_from=%d, want true/%d",
			res.WindowClamped, res.EffectiveFromMillis, to-horizon)
	}

	// A personalized query over the same over-long window runs the scan
	// path unclamped: a friend's visit far before the trailing horizon
	// must still surface, with no clamp marker.
	if err := f.visits.Store(model.Visit{
		UserID: 1, Time: from, Grade: 5, Network: "facebook", POI: f.pois[2],
	}); err != nil {
		t.Fatal(err)
	}
	pres, err := f.engine.Trending(context.Background(), Spec{
		FriendIDs: []int64{1}, FromMillis: from, ToMillis: to, Limit: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pres.WindowClamped {
		t.Fatal("personalized trending must not be clamped to the view horizon")
	}
	found := false
	for _, p := range pres.POIs {
		if p.POI.ID == f.pois[2].ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("personalized trending lost the pre-horizon visit: %+v", pres.POIs)
	}
}

// TestResultCacheConcurrentWrites drives queries and invalidating writes
// concurrently (meaningful under -race), then verifies quiescent state:
// the final cached answer equals the final uncached scan.
func TestResultCacheConcurrentWrites(t *testing.T) {
	f, _, _ := cachedFixture(t)
	ctx := context.Background()
	from, to := window()
	spec := Spec{FriendIDs: friendRange(1, 10), FromMillis: from, ToMillis: to, Limit: 5}
	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for !stop.Load() {
			_ = f.visits.Store(model.Visit{
				UserID: int64(rng.Intn(10) + 1), Time: from + rng.Int63n(to-from),
				Grade: float64(rng.Intn(5) + 1), Network: "facebook", POI: f.pois[rng.Intn(len(f.pois))],
			})
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := f.engine.Run(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	// Quiescent: one run to (re)fill, then cached vs uncached must agree.
	warmup, err := f.engine.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := f.engine.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	nspec := spec
	nspec.NoCache = true
	uncached, err := f.engine.Run(ctx, nspec)
	if err != nil {
		t.Fatal(err)
	}
	_ = warmup
	if string(poisJSON(t, final.POIs)) != string(poisJSON(t, uncached.POIs)) {
		t.Fatal("quiescent cached answer differs from the uncached scan")
	}
}

// TestTrendingEmptyWindowRejected covers the former silent-full-scan bug.
func TestTrendingEmptyWindowRejected(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 2, 10)
	for _, spec := range []Spec{
		{},                                     // zero window
		{FromMillis: 100, ToMillis: 100},       // empty
		{FromMillis: 200, ToMillis: 100},       // inverted
		{FriendIDs: []int64{1}, ToMillis: -50}, // personalized, inverted vs zero from
	} {
		if _, err := f.engine.Trending(context.Background(), spec); err == nil {
			t.Errorf("spec %+v: empty window must be rejected", spec)
		}
	}
	// A valid window still works.
	attachView(t, f)
	from, to := window()
	box := workload.GreeceBounds()
	if _, err := f.engine.Trending(context.Background(), Spec{BBox: &box, FromMillis: from, ToMillis: to, Limit: 3}); err != nil {
		t.Fatalf("valid window must pass: %v", err)
	}
}

// TestConcurrentQueriesShareTheSimulation is the regression test for the
// crash two simultaneous searches caused: every query path ends in a timing
// simulation on the cluster's one unlocked event heap, and two of them
// scheduling at once corrupted it (a nil dereference in the heap, or an
// event fired behind the clock) within a second. Six goroutines mix the
// three paths — personalized scans and cache hits, view-served trending,
// relational search — and every answer must still carry its own simulated
// latency.
func TestConcurrentQueriesShareTheSimulation(t *testing.T) {
	f, _, _ := cachedFixture(t)
	from, to := window()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				var latency float64
				var err error
				switch (g + i) % 3 {
				case 0:
					var res *Result
					res, err = f.engine.Run(ctx, Spec{
						FriendIDs: friendRange(1, int64(5+i%20)), FromMillis: from, ToMillis: to, Limit: 5, NoCache: g%2 == 0,
					})
					if err == nil {
						latency = res.LatencySeconds
					}
				case 1:
					var res *Result
					res, err = f.engine.Trending(ctx, Spec{FromMillis: to - int64(time.Hour/time.Millisecond)*24*int64(1+i%30), ToMillis: to, Limit: 5})
					if err == nil {
						latency = res.LatencySeconds
					}
				default:
					_, latency, err = f.engine.NonPersonalized(ctx, repos.SearchSpec{Keyword: "food", Limit: 5})
				}
				if err != nil {
					t.Errorf("goroutine %d op %d: %v", g, i, err)
					return
				}
				if latency <= 0 {
					t.Errorf("goroutine %d op %d: no simulated latency", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTrendingClampHonestUnderExpiry marches the view's floor past the
// readers' windows while they query (meaningful under -race). Whatever
// window start an answer claims to have served — the requested one, or
// effective_from_millis when window_clamped is set — every visit at or after
// it that had been applied before the query began must be counted: an answer
// may be narrowed, but never silently. The clamp and the bucket read once
// used separate lock holds, and an expiry between them produced exactly such
// an answer.
func TestTrendingClampHonestUnderExpiry(t *testing.T) {
	const (
		hour    = int64(time.Hour / time.Millisecond)
		horizon = 6 * hour
		steps   = 4000
		pois    = 5
	)
	f := newFixture(t, repos.SchemaReplicated, 2, 10)
	view, err := matview.NewHotInView(matview.ViewOptions{BucketMillis: hour, HorizonMillis: horizon})
	if err != nil {
		t.Fatal(err)
	}
	f.engine.SetHotInView(view)
	// The stream: one visit every 20 minutes, so the floor rises every third
	// Apply. applied counts visits whose Apply has returned, started those
	// whose Apply may have begun.
	stream := make([]model.Visit, steps)
	for i := range stream {
		stream[i] = model.Visit{UserID: 1, Time: int64(i) * hour / 3, Grade: 3, Network: "facebook", POI: f.pois[i%pois]}
	}
	var started, applied atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range stream {
			started.Add(1)
			view.Apply(stream[i : i+1])
			applied.Add(1)
		}
	}()
	count := func(prefix, from, to int64) map[int64]int {
		n := map[int64]int{}
		for _, v := range stream[:prefix] {
			if v.Time >= from && v.Time < to {
				n[v.POI.ID]++
			}
		}
		return n
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for applied.Load() < steps {
				before := applied.Load()
				floor := view.Floor()
				// A window ending just past the newest visit and starting
				// within two hours of the floor, on either side of it.
				to := before*hour/3 + hour
				from := max(0, to-horizon-2*hour+rng.Int63n(4*hour))
				res, err := f.engine.Trending(context.Background(), Spec{FromMillis: from, ToMillis: to})
				if err != nil {
					t.Error(err)
					return
				}
				after := started.Load()
				served := from
				if res.WindowClamped {
					served = res.EffectiveFromMillis
					// Capped at to: a window wholly behind the floor
					// is served as the empty window at its end.
					if served < min(floor, to) || served <= from {
						t.Errorf("window [%d,%d) clamped to %d with the floor already at %d", from, to, served, floor)
						return
					}
				}
				got := map[int64]int{}
				for _, p := range res.POIs {
					got[p.POI.ID] = p.Visits
				}
				// At least what was applied before the query in [served, to),
				// at most what was started by its end in the buckets that
				// window touches (the view quantizes both bounds outward).
				atLeast, atMost := count(before, served, to), count(after, served/hour*hour, (to+hour-1)/hour*hour)
				for id := range atMost {
					if got[id] < atLeast[id] || got[id] > atMost[id] {
						t.Errorf("window [%d,%d) clamped=%v served from %d: poi %d has %d visits, want %d..%d",
							from, to, res.WindowClamped, served, id, got[id], atLeast[id], atMost[id])
						return
					}
				}
			}
		}(int64(r + 1))
	}
	wg.Wait()
}
