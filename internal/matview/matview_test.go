package matview

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"modissense/internal/geo"
	"modissense/internal/model"
)

const hourMs = int64(60 * 60 * 1000)

func mkVisit(user, poi int64, t int64, grade float64) model.Visit {
	return model.Visit{
		UserID: user, Time: t, Grade: grade,
		POI: model.POI{ID: poi, Name: fmt.Sprintf("poi-%d", poi), Lat: float64(poi % 10), Lon: float64(poi % 10), Keywords: []string{"food"}},
	}
}

func TestViewPredicatesAndLimit(t *testing.T) {
	v, err := NewHotInView(ViewOptions{BucketMillis: hourMs, HorizonMillis: 100 * hourMs})
	if err != nil {
		t.Fatal(err)
	}
	near := model.POI{ID: 1, Name: "near", Lat: 1, Lon: 1, Keywords: []string{"coffee"}}
	far := model.POI{ID: 2, Name: "far", Lat: 50, Lon: 50, Keywords: []string{"coffee"}}
	other := model.POI{ID: 3, Name: "other", Lat: 1.2, Lon: 1.2, Keywords: []string{"pizza"}}
	for i := 0; i < 5; i++ {
		v.Apply([]model.Visit{
			{UserID: 1, Time: hourMs + int64(i), POI: near},
			{UserID: 1, Time: hourMs + int64(i), POI: far},
			{UserID: 1, Time: hourMs + int64(i), POI: other},
		})
	}
	box := geo.NewRect(geo.Point{Lat: 0, Lon: 0}, geo.Point{Lat: 2, Lon: 2})
	aggs, candidates := v.TopK(TopKSpec{BBox: &box, FromMillis: 0, ToMillis: 10 * hourMs})
	if candidates != 2 || len(aggs) != 2 {
		t.Fatalf("bbox filter kept %d candidates, want 2", candidates)
	}
	aggs, _ = v.TopK(TopKSpec{BBox: &box, Keyword: "coffee", FromMillis: 0, ToMillis: 10 * hourMs})
	if len(aggs) != 1 || aggs[0].POI.ID != near.ID {
		t.Fatalf("keyword filter = %+v, want only poi 1", aggs)
	}
	aggs, candidates = v.TopK(TopKSpec{FromMillis: 0, ToMillis: 10 * hourMs, Limit: 1})
	if len(aggs) != 1 || candidates != 3 {
		t.Fatalf("limit: got %d aggs / %d candidates, want 1 / 3", len(aggs), candidates)
	}
}

func TestViewExpiryAndCoverage(t *testing.T) {
	v, err := NewHotInView(ViewOptions{BucketMillis: hourMs, HorizonMillis: 10 * hourMs})
	if err != nil {
		t.Fatal(err)
	}
	// An empty view has no floor: it has seen the whole (empty) stream.
	if v.Floor() != math.MinInt64 {
		t.Fatal("fresh view must cover every window")
	}
	v.Apply([]model.Visit{mkVisit(1, 1, hourMs, 5)})
	if v.Floor() > 0 {
		t.Fatal("nothing expired yet; coverage must reach the epoch")
	}
	// Advance far enough that the first bucket falls behind the horizon.
	v.Apply([]model.Visit{mkVisit(1, 2, 20*hourMs, 5)})
	if v.Buckets() != 1 {
		t.Fatalf("buckets = %d, want 1 after expiry", v.Buckets())
	}
	// The floor rose past the expired bucket to exactly the horizon cutoff.
	if got := v.Floor(); got != 20*hourMs-10*hourMs {
		t.Fatalf("floor = %d, want the horizon cutoff %d", got, 10*hourMs)
	}
	// The expired POI's metadata is released once unreferenced.
	if _, candidates := v.TopK(TopKSpec{FromMillis: 0, ToMillis: 30 * hourMs}); candidates != 1 {
		t.Fatalf("candidates = %d, want only the live POI", candidates)
	}
	// A visit older than the horizon is skipped, not resurrected.
	v.Apply([]model.Visit{mkVisit(1, 3, hourMs, 5)})
	if got := v.Floor(); got != 10*hourMs {
		t.Fatalf("stale apply moved the floor to %d", got)
	}
}

func TestCacheStoreGetAndLRU(t *testing.T) {
	c := NewResultCache(16 * (256 + 1024)) // 16 shards, tight per-shard budget
	friends := []int64{1, 2}
	if !c.StoreIfFresh("k1", c.Snapshot(friends), "v1", 100) {
		t.Fatal("fresh store must succeed")
	}
	got, ok := c.Get("k1")
	if !ok || got.(string) != "v1" {
		t.Fatalf("Get = %v/%v", got, ok)
	}
	if _, ok := c.Get("absent"); ok {
		t.Fatal("absent key must miss")
	}
	// Oversized value is refused outright.
	if c.StoreIfFresh("huge", c.Snapshot(friends), "v", 1<<20) {
		t.Fatal("oversized value must not be cached")
	}
	// Same-key replacement keeps one entry.
	if !c.StoreIfFresh("k1", c.Snapshot(friends), "v2", 100) {
		t.Fatal("replacement must succeed")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after replacement", c.Len())
	}
	got, _ = c.Get("k1")
	if got.(string) != "v2" {
		t.Fatalf("replacement not visible: %v", got)
	}
}

func TestCacheEvictionRespectsBudget(t *testing.T) {
	budget := int64(16 * 600)
	c := NewResultCache(budget)
	for i := 0; i < 200; i++ {
		c.StoreIfFresh(fmt.Sprintf("key-%03d", i), c.Snapshot(nil), i, 128)
	}
	if c.Bytes() > budget {
		t.Fatalf("cache holds %d bytes over the %d budget", c.Bytes(), budget)
	}
	if c.Len() == 0 {
		t.Fatal("eviction must leave recent entries behind")
	}
}

func TestCacheInvalidateByFriend(t *testing.T) {
	c := NewResultCache(1 << 20)
	c.StoreIfFresh("a", c.Snapshot([]int64{1, 2}), "a", 64)
	c.StoreIfFresh("b", c.Snapshot([]int64{3, 4}), "b", 64)
	c.Invalidate([]int64{2})
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry with invalidated friend must be gone")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("unrelated entry must survive")
	}
	// Invalidating an unknown user is a no-op.
	c.Invalidate([]int64{999})
	if _, ok := c.Get("b"); !ok {
		t.Fatal("no-op invalidation must not evict")
	}
}

func TestCacheStaleSnapshotRejected(t *testing.T) {
	c := NewResultCache(1 << 20)
	friends := []int64{7}
	snap := c.Snapshot(friends)
	// A write lands between the snapshot and the store: the store must
	// lose, or the cache would serve pre-write results.
	c.Invalidate([]int64{7})
	if c.StoreIfFresh("k", snap, "stale", 64) {
		t.Fatal("store with a stale epoch snapshot must be rejected")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("rejected store must not be visible")
	}
	// A fresh snapshot taken after the write stores fine.
	if !c.StoreIfFresh("k", c.Snapshot(friends), "fresh", 64) {
		t.Fatal("post-write snapshot must store")
	}
}

// TestCacheReplacementStaysInvalidatable pins the replacement ordering
// bug: storing the same key twice (two identical queries racing the same
// miss) must leave the surviving entry registered in the friend index, so
// a later friend check-in still removes it.
func TestCacheReplacementStaysInvalidatable(t *testing.T) {
	c := NewResultCache(1 << 20)
	friends := []int64{11, 12}
	if !c.StoreIfFresh("k", c.Snapshot(friends), "first", 64) {
		t.Fatal("first store must succeed")
	}
	if !c.StoreIfFresh("k", c.Snapshot(friends), "second", 64) {
		t.Fatal("replacement store must succeed")
	}
	c.Invalidate([]int64{11})
	if _, ok := c.Get("k"); ok {
		t.Fatal("replaced entry survived an invalidating check-in")
	}
}

// TestCacheEpochsBounded checks the epoch map does not grow with the
// distinct-writer population: epochs exist only while a snapshot holds
// them, and settling the snapshot (store, reject or release) prunes them.
func TestCacheEpochsBounded(t *testing.T) {
	c := NewResultCache(1 << 20)
	// Writes by users nobody queried leave no state behind.
	for uid := int64(0); uid < 1000; uid++ {
		c.Invalidate([]int64{uid})
	}
	// A stored entry keeps its friends indexed but pins no epochs once the
	// snapshot is settled; an abandoned snapshot releases explicitly.
	if !c.StoreIfFresh("k", c.Snapshot([]int64{1, 2}), "v", 64) {
		t.Fatal("store must succeed")
	}
	abandoned := c.Snapshot([]int64{3})
	c.Invalidate([]int64{3}) // bumps: a snapshot holds user 3
	abandoned.Release()
	abandoned.Release() // idempotent
	c.indexMu.Lock()
	epochs, pending := len(c.epochs), len(c.pending)
	c.indexMu.Unlock()
	if epochs != 0 || pending != 0 {
		t.Fatalf("epochs/pending = %d/%d after settling all snapshots, want 0/0", epochs, pending)
	}
	// The invalidation index still removes the cached entry.
	c.Invalidate([]int64{2})
	if _, ok := c.Get("k"); ok {
		t.Fatal("entry must still be invalidatable without epoch state")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewResultCache(16 * 4096)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			friends := []int64{int64(g % 4)}
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k-%d-%d", g, i%20)
				if _, ok := c.Get(key); !ok {
					c.StoreIfFresh(key, c.Snapshot(friends), i, 64)
				}
				if i%17 == 0 {
					c.Invalidate(friends)
				}
			}
		}(g)
	}
	wg.Wait()
}
