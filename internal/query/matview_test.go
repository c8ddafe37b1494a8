package query

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modissense/internal/faultinject"
	"modissense/internal/geo"
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

// wholeGrades rounds a generated visit's grade to a whole number: sums of
// whole grades are exact in floating point whatever the order of the rows,
// which is what lets a cached entry absorb a check-in (see poiAgg.inexact).
func wholeGrades(v *model.Visit) { v.Grade = math.Round(v.Grade) }

// wireCache connects a fixture's visit stream to a result cache and a
// materialized view through the store hooks, the way core.Platform does.
func wireCache(f *fixture, cache *matview.ResultCache, view *matview.HotInView) {
	f.visits.SetOnStore(cache.Announce, func(vs []model.Visit, committed bool) {
		if !committed {
			cache.Abandon(vs)
			return
		}
		view.Apply(vs)
		cache.Apply(vs)
	})
	f.engine.SetResultCache(cache)
}

// cachedFixture is a whole-grade fixture with a result cache and a view.
func cachedFixture(t testing.TB) (*fixture, *matview.ResultCache, *matview.HotInView) {
	t.Helper()
	return cachedFixtureOf(t, repos.SchemaReplicated)
}

func cachedFixtureOf(t testing.TB, schema repos.VisitSchema) (*fixture, *matview.ResultCache, *matview.HotInView) {
	t.Helper()
	f := newFixtureWith(t, schema, 4, 40, 20, wholeGrades)
	cache := matview.NewResultCache(8 << 20)
	view := attachView(t, f)
	wireCache(f, cache, view)
	return f, cache, view
}

// poisJSON renders a ranking for byte-level comparison, documents included.
func poisJSON(t testing.TB, pois []ScoredPOI) []byte {
	t.Helper()
	b, err := json.Marshal(pois)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// cacheCounters reads the live cache families, by the names /metrics
// exports them under.
type cacheCounters struct{ hits, misses, patches, invalidations int64 }

func readCacheCounters() cacheCounters {
	v := func(name string) int64 { return obs.Default().Counter(name, "").Value() }
	return cacheCounters{
		hits: v("matview_cache_hits_total"), misses: v("matview_cache_misses_total"),
		patches: v("matview_cache_patches_total"), invalidations: v("matview_cache_invalidations_total"),
	}
}

func (c cacheCounters) since(c0 cacheCounters) cacheCounters {
	return cacheCounters{c.hits - c0.hits, c.misses - c0.misses, c.patches - c0.patches, c.invalidations - c0.invalidations}
}

// mustRun runs spec and fails the test on error.
func mustRun(t testing.TB, f *fixture, spec Spec) *Result {
	t.Helper()
	res, err := f.engine.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// scanOf answers spec with a fresh scan, bypassing the cache both ways.
func scanOf(t testing.TB, f *fixture, spec Spec) *Result {
	t.Helper()
	spec.NoCache = true
	res := mustRun(t, f, spec)
	if res.Cached {
		t.Fatal("NoCache run must not be served from cache")
	}
	return res
}

// prime fills the cache with spec's entry and returns the hit that proves it.
func prime(t testing.TB, f *fixture, spec Spec) *Result {
	t.Helper()
	if cold := mustRun(t, f, spec); cold.Cached {
		t.Fatal("first run of a spec must not be cached")
	}
	warm := mustRun(t, f, spec)
	if !warm.Cached {
		t.Fatal("second run of the same spec must hit the cache")
	}
	return warm
}

// halfBox is a box holding the southern half of the catalog, with a POI
// inside it and one outside.
func halfBox(f *fixture) (box geo.Rect, inside, outside model.POI) {
	lats := make([]float64, len(f.pois))
	for i, p := range f.pois {
		lats[i] = p.Lat
	}
	sort.Float64s(lats)
	g := workload.GreeceBounds()
	box = geo.Rect{MinLat: g.MinLat, MinLon: g.MinLon, MaxLat: lats[len(lats)/2], MaxLon: g.MaxLon}
	for _, p := range f.pois {
		if box.Contains(p.Point()) {
			inside = p
		} else {
			outside = p
		}
	}
	return box, inside, outside
}

func hasPOI(pois []ScoredPOI, id int64) bool {
	for _, p := range pois {
		if p.POI.ID == id {
			return true
		}
	}
	return false
}

// TestResultCacheEquivalence is the cache's correctness property: a cached
// answer is byte-identical, documents included, to the fresh scan of the
// same spec — before any write, and after a friend's check-in, which is
// folded into the entry rather than dropping it (the next answer is still
// `cached`), or drops it in exactly the cases a fold could not be exact.
func TestResultCacheEquivalence(t *testing.T) {
	from, to := window()
	t.Run("random specs, one friend write each", func(t *testing.T) {
		f, _, _ := cachedFixture(t)
		rng := rand.New(rand.NewSource(42))
		box := workload.GreeceBounds()
		const iters = 12
		c0 := readCacheCounters()
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
			cold := mustRun(t, f, spec)
			warm := mustRun(t, f, spec)
			if cold.Cached || !warm.Cached {
				t.Fatalf("iter %d: cold cached=%v, warm cached=%v; want false, true", iter, cold.Cached, warm.Cached)
			}
			if warm.LatencySeconds <= 0 {
				t.Fatal("cached results must still carry a simulated latency")
			}
			if string(poisJSON(t, cold.POIs)) != string(poisJSON(t, warm.POIs)) {
				t.Fatalf("iter %d: cached ranking differs from computed one", iter)
			}

			// One friend in the cached set checks in.
			friend := spec.FriendIDs[rng.Intn(len(spec.FriendIDs))]
			poi := f.pois[rng.Intn(len(f.pois))]
			if err := f.visits.Store(model.Visit{
				UserID: friend, Time: from + rng.Int63n(to-from), Grade: 5, Network: "facebook", POI: poi,
			}); err != nil {
				t.Fatal(err)
			}
			after := mustRun(t, f, spec)
			if !after.Cached {
				t.Fatalf("iter %d: a friend's check-in dropped the entry instead of patching it", iter)
			}
			if string(poisJSON(t, after.POIs)) != string(poisJSON(t, scanOf(t, f, spec).POIs)) {
				t.Fatalf("iter %d: patched ranking differs from the uncached scan", iter)
			}
		}
		// The exported counters account for exactly that: two hits per spec
		// (the repeat and the read after the write), one miss (the cold run),
		// nothing for a NoCache run, no entry dropped, and every write folded
		// into its spec's entry at least (earlier specs share friends).
		got := readCacheCounters().since(c0)
		if got.hits != 2*iters || got.misses != iters || got.invalidations != 0 || got.patches < iters {
			t.Errorf("cache counters moved by %+v, want %d hits / %d misses / at least %d patches / 0 invalidations", got, 2*iters, iters, iters)
		}
	})

	// The cases below each prime one entry, write, and read again. pick
	// chooses the written visits from the fixture, the spec and the primed
	// answer; the read after must equal the scan and be cached, clean (not
	// re-ranked: charged as a plain hit) and patched as stated.
	friends := friendRange(1, 12)
	writer := friends[3]
	visit := func(poi model.POI, at int64, grade float64) model.Visit {
		return model.Visit{UserID: writer, Time: at, Grade: grade, Network: "facebook", POI: poi}
	}
	// unvisited is a catalog POI, accepted by ok, that no candidate of spec
	// is at.
	unvisited := func(t *testing.T, f *fixture, spec Spec, ok func(*model.POI) bool) model.POI {
		spec.Limit = 0
		all := scanOf(t, f, spec).POIs
		for _, p := range f.pois {
			if !hasPOI(all, p.ID) && (ok == nil || ok(&p)) {
				return p
			}
		}
		t.Fatal("every catalog POI is a candidate")
		return model.POI{}
	}
	cases := []struct {
		name   string
		schema repos.VisitSchema
		spec   func(f *fixture) Spec
		pick   func(t *testing.T, f *fixture, spec Spec, primed *Result) []model.Visit
		// wantDropped: the entry cannot absorb the write; the next read scans.
		wantDropped bool
		// wantClean: nothing was folded; the next read is a plain hit.
		wantClean   bool
		wantPatches int64
		check       func(t *testing.T, primed, after *Result, written []model.Visit)
	}{
		{
			name: "visit outside the window",
			spec: func(*fixture) Spec {
				return Spec{FriendIDs: friends, FromMillis: from, ToMillis: to - 1000, Limit: 5}
			},
			pick: func(_ *testing.T, f *fixture, _ Spec, _ *Result) []model.Visit {
				return []model.Visit{visit(f.pois[0], to, 5), visit(f.pois[1], from-1, 5)}
			},
			wantClean: true,
		},
		{
			name: "visit outside the box",
			spec: func(f *fixture) Spec {
				box, _, _ := halfBox(f)
				return Spec{FriendIDs: friends, BBox: &box, FromMillis: from, ToMillis: to, Limit: 5}
			},
			pick: func(_ *testing.T, f *fixture, _ Spec, _ *Result) []model.Visit {
				_, _, outside := halfBox(f)
				return []model.Visit{visit(outside, from+1000, 5)}
			},
			wantClean: true,
		},
		{
			name: "visit without the keyword",
			spec: func(f *fixture) Spec {
				return Spec{FriendIDs: friends, Keyword: f.pois[0].Keywords[0], FromMillis: from, ToMillis: to, Limit: 5, OrderBy: ByHotness}
			},
			pick: func(t *testing.T, f *fixture, spec Spec, _ *Result) []model.Visit {
				for _, p := range f.pois {
					if !spec.matchesPOI(&p) {
						return []model.Visit{visit(p, from+1000, 5)}
					}
				}
				t.Fatal("every POI carries the keyword")
				return nil
			},
			wantClean: true,
		},
		{
			name: "batch by one writer creates a candidate that enters the top-k",
			spec: func(f *fixture) Spec {
				box, _, _ := halfBox(f)
				return Spec{FriendIDs: friends, BBox: &box, FromMillis: from, ToMillis: to, Limit: 3, OrderBy: ByHotness}
			},
			pick: func(t *testing.T, f *fixture, spec Spec, primed *Result) []model.Visit {
				fresh := unvisited(t, f, spec, spec.matchesPOI)
				_, _, outside := halfBox(f)
				// Enough visits to lead the ranking, one of them filtered out.
				vs := []model.Visit{visit(outside, from+500, 5)}
				for i := 0; i <= primed.POIs[0].Visits; i++ {
					vs = append(vs, visit(fresh, from+int64(i)*1000, float64(1+i%5)))
				}
				return vs
			},
			wantPatches: -1, // one per visit but the filtered one
			check: func(t *testing.T, primed, after *Result, written []model.Visit) {
				if fresh := written[1].POI.ID; after.POIs[0].POI.ID != fresh || hasPOI(primed.POIs, fresh) {
					t.Errorf("new candidate %d does not lead the patched ranking %+v", fresh, after.POIs)
				}
			},
		},
		{
			name: "low grades push a winner out and an unpatched candidate in",
			spec: func(*fixture) Spec {
				return Spec{FriendIDs: friends, FromMillis: from, ToMillis: to, Limit: 4, OrderBy: ByInterest}
			},
			pick: func(_ *testing.T, _ *fixture, _ Spec, primed *Result) []model.Visit {
				vs := make([]model.Visit, 40)
				for i := range vs {
					vs[i] = visit(primed.POIs[0].POI, from+int64(i), 0)
				}
				return vs
			},
			wantPatches: 40,
			check: func(t *testing.T, primed, after *Result, _ []model.Visit) {
				if hasPOI(after.POIs, primed.POIs[0].POI.ID) {
					t.Errorf("winner %d survived forty zero grades: %+v", primed.POIs[0].POI.ID, after.POIs)
				}
				// The other three move up and a candidate nothing was folded
				// into takes the last place.
				for i, p := range primed.POIs[1:] {
					if after.POIs[i].POI.ID != p.POI.ID {
						t.Errorf("rank %d is POI %d, want %d", i+1, after.POIs[i].POI.ID, p.POI.ID)
					}
				}
				if last := after.POIs[3].POI.ID; hasPOI(primed.POIs, last) {
					t.Errorf("no unpatched candidate entered: %+v", after.POIs)
				}
			},
		},
		{
			name: "differing POI document",
			spec: func(*fixture) Spec {
				return Spec{FriendIDs: friends, FromMillis: from, ToMillis: to, Limit: 5, OrderBy: ByHotness}
			},
			pick: func(_ *testing.T, _ *fixture, _ Spec, primed *Result) []model.Visit {
				// What a check-in looks like after POST /admin/hotin rewrote
				// the catalog's hotness.
				doc := primed.POIs[0].POI
				doc.Hotness += 0.25
				return []model.Visit{visit(doc, from+1000, 5)}
			},
			wantDropped: true,
		},
		{
			name: "region top-k",
			spec: func(*fixture) Spec {
				return Spec{FriendIDs: friends, FromMillis: from, ToMillis: to, Limit: 5, RegionTopK: 3}
			},
			pick: func(_ *testing.T, f *fixture, _ Spec, _ *Result) []model.Visit {
				return []model.Visit{visit(f.pois[0], from+1000, 5)}
			},
			wantDropped: true,
		},
		{
			name: "fractional grade",
			spec: func(*fixture) Spec {
				return Spec{FriendIDs: friends, FromMillis: from, ToMillis: to, Limit: 5}
			},
			pick: func(_ *testing.T, _ *fixture, _ Spec, primed *Result) []model.Visit {
				return []model.Visit{visit(primed.POIs[0].POI, from+1000, 4.3)}
			},
			wantDropped: true,
		},
		{
			name:   "normalized schema filters after the join",
			schema: repos.SchemaNormalized,
			spec: func(f *fixture) Spec {
				box, _, _ := halfBox(f)
				return Spec{FriendIDs: friends, BBox: &box, FromMillis: from, ToMillis: to, Limit: 3, OrderBy: ByHotness}
			},
			pick: func(t *testing.T, f *fixture, spec Spec, primed *Result) []model.Visit {
				fresh := unvisited(t, f, spec, spec.matchesPOI)
				_, _, outside := halfBox(f)
				// The patch can only filter by time, as the coprocessor does:
				// both in-window visits are folded, rank drops the outside one.
				vs := []model.Visit{visit(outside, from+500, 5), visit(fresh, to+1, 5)}
				for i := 0; i <= primed.POIs[0].Visits; i++ {
					vs = append(vs, visit(fresh, from+int64(i)*1000, 3))
				}
				return vs
			},
			wantPatches: -1, // all but the one after the window
			check: func(t *testing.T, _, after *Result, written []model.Visit) {
				if fresh := written[1].POI.ID; after.POIs[0].POI.ID != fresh {
					t.Errorf("new candidate %d does not lead the patched ranking %+v", fresh, after.POIs)
				}
				if hasPOI(after.POIs, written[0].POI.ID) {
					t.Errorf("POI %d outside the box was ranked", written[0].POI.ID)
				}
			},
		},
		{
			name: "no limit",
			spec: func(*fixture) Spec {
				return Spec{FriendIDs: friends, FromMillis: from, ToMillis: to, OrderBy: ByInterest}
			},
			pick: func(t *testing.T, f *fixture, spec Spec, primed *Result) []model.Visit {
				return []model.Visit{
					visit(unvisited(t, f, spec, nil), from+1000, 2),
					visit(primed.POIs[len(primed.POIs)/2].POI, from+2000, 1),
				}
			},
			wantPatches: 2,
			check: func(t *testing.T, primed, after *Result, _ []model.Visit) {
				if len(after.POIs) != len(primed.POIs)+1 {
					t.Errorf("unlimited ranking has %d POIs after a new candidate, want %d", len(after.POIs), len(primed.POIs)+1)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, cache, _ := cachedFixtureOf(t, tc.schema)
			spec := tc.spec(f)
			primed := prime(t, f, spec)
			written := tc.pick(t, f, spec, primed)
			if tc.wantPatches < 0 {
				tc.wantPatches += int64(len(written))
			}
			c0 := readCacheCounters()
			if err := f.visits.StoreBatch(written); err != nil {
				t.Fatal(err)
			}
			after := mustRun(t, f, spec)
			got := readCacheCounters().since(c0)
			if after.Cached == tc.wantDropped {
				t.Fatalf("read after the write: cached = %v, want %v", after.Cached, !tc.wantDropped)
			}
			if string(poisJSON(t, after.POIs)) != string(poisJSON(t, scanOf(t, f, spec).POIs)) {
				t.Fatalf("answer after the write differs from the uncached scan:\n got %s\nscan %s",
					poisJSON(t, after.POIs), poisJSON(t, scanOf(t, f, spec).POIs))
			}
			var wantInvalidations int64
			if tc.wantDropped {
				wantInvalidations = 1
			}
			if got.patches != tc.wantPatches || got.invalidations != wantInvalidations {
				t.Errorf("write folded %d visits and dropped %d entries, want %d and %d", got.patches, got.invalidations, tc.wantPatches, wantInvalidations)
			}
			// A plain hit is charged parse + response; one that re-ranked is
			// charged the merge of every candidate on top.
			// (Latencies are differences of simulation clock readings, so
			// equal charges agree to rounding only.)
			if clean := close(after.LatencySeconds, primed.LatencySeconds); !tc.wantDropped && clean != tc.wantClean {
				t.Errorf("hit after the write charged %.9fs against %.9fs for a clean hit: re-ranked = %v, want %v",
					after.LatencySeconds, primed.LatencySeconds, !clean, !tc.wantClean)
			}
			if tc.wantClean && string(poisJSON(t, after.POIs)) != string(poisJSON(t, primed.POIs)) {
				t.Error("a filtered-out visit changed the answer")
			}
			if tc.check != nil {
				tc.check(t, primed, after, written)
			}
			// Whatever happened, the next read is a clean hit with the same
			// bytes, and the cache's accounting still adds up.
			again := mustRun(t, f, spec)
			if !again.Cached || string(poisJSON(t, again.POIs)) != string(poisJSON(t, after.POIs)) {
				t.Errorf("second read after the write: cached = %v, same bytes = %v", again.Cached,
					string(poisJSON(t, again.POIs)) == string(poisJSON(t, after.POIs)))
			}
			if cache.Len() != 1 || cache.Bytes() <= 0 {
				t.Errorf("cache holds %d entries in %d bytes, want one entry", cache.Len(), cache.Bytes())
			}
		})
	}
}

// TestResultCacheUnrelatedWriteKeepsEntry checks the friend index's
// precision: a check-in by a user outside the cached friend set reaches
// nothing.
func TestResultCacheUnrelatedWriteKeepsEntry(t *testing.T) {
	f, _, _ := cachedFixture(t)
	from, to := window()
	spec := Spec{FriendIDs: friendRange(1, 5), FromMillis: from, ToMillis: to, Limit: 5}
	primed := prime(t, f, spec)
	c0 := readCacheCounters()
	if err := f.visits.Store(model.Visit{
		UserID: 30, Time: from + 1000, Grade: 4, Network: "facebook", POI: f.pois[0],
	}); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, f, spec)
	if !res.Cached || !close(res.LatencySeconds, primed.LatencySeconds) {
		t.Fatal("write by a non-friend must leave the cached entry alone")
	}
	if got := readCacheCounters().since(c0); got.patches != 0 || got.invalidations != 0 {
		t.Fatalf("write by a non-friend folded %d visits and dropped %d entries", got.patches, got.invalidations)
	}
}

// TestResultCacheSkipsReplicaAnswers: an answer a region's replica served —
// a won hedge here — may lag the primary by intercepted shipments, so it is
// returned but not memoized; a cached entry is only ever patched forward
// from what it was stored with, so a lagging one would stay wrong.
func TestResultCacheSkipsReplicaAnswers(t *testing.T) {
	f, cache, _ := cachedFixture(t)
	from, to := window()
	spec := Spec{FriendIDs: friendRange(1, 10), FromMillis: from, ToMillis: to, Limit: 5, OrderBy: ByHotness}
	tbl := f.visits.Table()
	if err := tbl.EnableReplication(1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CatchUpReplication(); err != nil {
		t.Fatal(err)
	}
	// From here on every shipment is intercepted: the replicas stop at what
	// they hold while the primaries take one more visit per friend.
	ship, err := faultinject.ParseSchedule("crash:op=ship", 1)
	if err != nil {
		t.Fatal(err)
	}
	tbl.SetFaultInjector(faultinject.New(ship))
	top := scanOf(t, f, spec).POIs[0]
	for _, friend := range spec.FriendIDs {
		for i := 0; i <= top.Visits; i++ {
			if err := f.visits.Store(model.Visit{UserID: friend, Time: from + int64(i), Grade: 3, Network: "facebook", POI: f.pois[7]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	fresh := scanOf(t, f, spec)
	if fresh.POIs[0].POI.ID != f.pois[7].ID {
		t.Fatalf("primaries rank %+v first, want POI %d", fresh.POIs[0], f.pois[7].ID)
	}

	// Stall every primary read past the hedge threshold: the replicas answer.
	pol := DefaultReadPolicy()
	pol.HedgeEnabled, pol.HedgeMin, pol.HedgeMax = true, time.Millisecond, 5*time.Millisecond
	f.engine.SetReadPolicy(&pol)
	f.engine.SetFaultInjector(faultinject.New(faultinject.Schedule{Seed: 1, Rules: []faultinject.Rule{{
		Fault: faultinject.Stall, Node: faultinject.Any, Region: faultinject.Any, Replica: 0, Prob: 1, Duration: 300 * time.Millisecond,
	}}}))
	hedged := mustRun(t, f, spec)
	if hedged.Exec.Hedges == 0 {
		t.Fatal("no hedge fired")
	}
	if string(poisJSON(t, hedged.POIs)) == string(poisJSON(t, fresh.POIs)) {
		t.Fatal("the lagging replicas answered like the primaries; the test proves nothing")
	}
	if cache.Len() != 0 {
		t.Fatal("a replica-served answer was memoized")
	}

	// With the primaries answering again the spec is computed, stored and
	// hit. Hedging goes too: on a loaded machine a primary read can outlast
	// the 5 ms hedge cap, and a replica-served answer is not memoized.
	f.engine.SetFaultInjector(nil)
	f.engine.SetReadPolicy(nil)
	if got := prime(t, f, spec); string(poisJSON(t, got.POIs)) != string(poisJSON(t, fresh.POIs)) {
		t.Fatal("cached answer differs from the primaries' scan")
	}
}

// TestTrendingViewMatchesScan compares the materialized-view trending path
// against a brute-force aggregation over the same window.
func TestTrendingViewMatchesScan(t *testing.T) {
	f, _, _ := cachedFixture(t)
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
	bucket := int64(time.Hour / time.Millisecond) // attachView's bucket width
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

// TestResultCacheConcurrentWrites reads one spec while two writers check
// its friends in (meaningful under -race), with and without a fault schedule
// failing a third of the table writes, then verifies the quiescent state:
// the entry that survived is cached, equals the uncached scan, and nothing
// is left in flight. The writes are announced to the cache before the table
// makes them visible; without that, a read that scans a new row and stores
// before the writer's settle gets the row folded in a second time, which
// this test then catches as a visit count the scan does not have.
func TestResultCacheConcurrentWrites(t *testing.T) {
	for _, faults := range []string{"", "crash:op=put,prob=0.3"} {
		t.Run("faults="+faults, func(t *testing.T) {
			f, cache, _ := cachedFixture(t)
			if faults != "" {
				sched, err := faultinject.ParseSchedule(faults, 3)
				if err != nil {
					t.Fatal(err)
				}
				f.visits.Table().SetFaultInjector(faultinject.New(sched))
			}
			from, to := window()
			spec := Spec{FriendIDs: friendRange(1, 10), FromMillis: from, ToMillis: to, Limit: 5, OrderBy: ByHotness}
			c0 := readCacheCounters()
			// The writers write in bursts and then wait for the reader: while
			// a burst runs some friend always has a write in flight and no
			// read may store, between bursts a read stores the entry the next
			// burst is folded into. Every fourth read offers a waiting writer
			// its next burst, and the reads go on until a hundred bursts have
			// been handed out, however the scheduler runs the goroutines.
			var wg sync.WaitGroup
			var failed atomic.Int64
			resume := make(chan struct{})
			writing, stopWriters := context.WithCancel(context.Background())
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						for i := 0; i < 25; i++ {
							// A handful of POIs, so the writes land on the ranking.
							err := f.visits.Store(model.Visit{
								UserID: int64(rng.Intn(10) + 1), Time: from + rng.Int63n(to-from),
								Grade: float64(rng.Intn(5) + 1), Network: "facebook", POI: f.pois[rng.Intn(8)],
							})
							if err != nil {
								failed.Add(1)
							}
						}
						select {
						case <-resume:
						case <-writing.Done():
							return
						}
					}
				}(int64(9 + w))
			}
			resumed := 0
			for i := 0; i < 400 || resumed < 100; i++ {
				mustRun(t, f, spec)
				if i%4 == 0 {
					select {
					case resume <- struct{}{}:
						resumed++
					default: // both still in their bursts
					}
				}
			}
			stopWriters()
			wg.Wait()
			if (faults != "") != (failed.Load() > 0) {
				t.Fatalf("%d writes failed under fault schedule %q", failed.Load(), faults)
			}
			// Quiescent: one run to (re)fill, then cached vs uncached must agree.
			mustRun(t, f, spec)
			final := mustRun(t, f, spec)
			if !final.Cached {
				t.Fatal("quiescent repeat of the spec was not served from the cache")
			}
			if got, want := poisJSON(t, final.POIs), poisJSON(t, scanOf(t, f, spec).POIs); string(got) != string(want) {
				t.Fatalf("quiescent cached answer differs from the uncached scan:\n got %s\nscan %s", got, want)
			}
			// The writers did meet the entry: visits were folded into it.
			if got := readCacheCounters().since(c0); got.patches == 0 {
				t.Errorf("no visit was folded into a live entry (%+v)", got)
			}
			// And a last write, settled with nobody racing it, is still folded.
			if faults == "" {
				if err := f.visits.Store(model.Visit{UserID: 1, Time: from, Grade: 5, Network: "facebook", POI: f.pois[0]}); err != nil {
					t.Fatal(err)
				}
				last := mustRun(t, f, spec)
				if !last.Cached || string(poisJSON(t, last.POIs)) != string(poisJSON(t, scanOf(t, f, spec).POIs)) {
					t.Fatal("a write after quiescence was not folded exactly")
				}
			}
			// Nothing stays in flight or pinned: a fresh spec over the same
			// friends stores at once.
			other := spec
			other.Limit = 7
			prime(t, f, other)
			if cache.Len() != 2 {
				t.Fatalf("cache holds %d entries, want the two specs", cache.Len())
			}
		})
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
// paths — personalized scans and cache hits, view-served trending with and
// without a keyword — and every answer must still carry its own simulated
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
					var res *Result
					res, err = f.engine.Trending(ctx, Spec{Keyword: "food", FromMillis: from, ToMillis: to, Limit: 5})
					if err == nil {
						latency = res.LatencySeconds
					}
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
