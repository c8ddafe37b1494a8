package matview

import (
	"fmt"
	"math"
	"math/rand"
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
	if bucketCount(v) != 1 {
		t.Fatalf("buckets = %d, want 1 after expiry", bucketCount(v))
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

// TestViewNearMinInt64 applies a visit within one horizon of
// math.MinInt64, where the horizon cutoff high−horizon and the start of the
// partial bucket above math.MinInt64 would wrap, then a 2015 visit: each is
// counted by a window around it, and the first expires.
func TestViewNearMinInt64(t *testing.T) {
	v, err := NewHotInView(ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	count := func(from, to int64) int {
		_, candidates := v.TopK(TopKSpec{FromMillis: from, ToMillis: to})
		return candidates
	}
	v.Apply([]model.Visit{mkVisit(1, 1, math.MinInt64+5, 5)})
	if got := count(math.MinInt64, math.MinInt64+hourMs); got != 1 || v.Floor() != math.MinInt64 {
		t.Fatalf("after a visit at math.MinInt64+5: window counts %d, floor %d", got, v.Floor())
	}
	at := int64(1430481600000) // 2015-05-01T12:00:00Z
	v.Apply([]model.Visit{mkVisit(1, 2, at, 5)})
	if got := count(at-hourMs, at+hourMs); got != 1 {
		t.Errorf("a window around the 2015 visit counts %d POIs, want 1", got)
	}
	if got := bucketCount(v); got != 1 {
		t.Errorf("buckets = %d, want the 2015 visit's alone", got)
	}
}

// fixed is a cached value no visit can be folded into: a friend's write
// drops it, the way every write did before entries could be patched.
type fixed string

func (fixed) Patch([]model.Visit) (int, int64, bool) { return 0, 0, false }

// sums is a patchable value: it counts the visits folded into it and grows
// by grow bytes per visit.
type sums struct {
	n    int
	grow int64
}

func (s *sums) Patch(vs []model.Visit) (int, int64, bool) {
	s.n += len(vs)
	return len(vs), s.grow * int64(len(vs)), true
}

// get reads key's value out of the cache.
func get(c *ResultCache, key string) (v Value, ok bool) {
	ok = c.Get(key, func(got Value) { v = got })
	return v, ok
}

// by is a batch of one visit by each given user.
func by(users ...int64) []model.Visit {
	vs := make([]model.Visit, len(users))
	for i, u := range users {
		vs[i] = mkVisit(u, 1, hourMs, 5)
	}
	return vs
}

// write runs a committed batch through the cache the way the Visits
// repository does: announced, then (the table write would sit here) applied.
func write(c *ResultCache, vs []model.Visit) {
	c.Announce(vs)
	c.Apply(vs)
}

func TestCacheStoreGetAndLRU(t *testing.T) {
	c := NewResultCache(16 * (256 + 1024)) // 16 shards, tight per-shard budget
	friends := []int64{1, 2}
	if !c.StoreIfFresh("k1", c.Snapshot(friends), fixed("v1"), 100) {
		t.Fatal("fresh store must succeed")
	}
	got, ok := get(c, "k1")
	if !ok || got.(fixed) != "v1" {
		t.Fatalf("Get = %v/%v", got, ok)
	}
	if _, ok := get(c, "absent"); ok {
		t.Fatal("absent key must miss")
	}
	// Oversized value is refused outright.
	if c.StoreIfFresh("huge", c.Snapshot(friends), fixed("v"), 1<<20) {
		t.Fatal("oversized value must not be cached")
	}
	// Same-key replacement keeps one entry.
	if !c.StoreIfFresh("k1", c.Snapshot(friends), fixed("v2"), 100) {
		t.Fatal("replacement must succeed")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after replacement", c.Len())
	}
	got, _ = get(c, "k1")
	if got.(fixed) != "v2" {
		t.Fatalf("replacement not visible: %v", got)
	}
}

func TestCacheEvictionRespectsBudget(t *testing.T) {
	budget := int64(16 * 600)
	c := NewResultCache(budget)
	for i := 0; i < 200; i++ {
		c.StoreIfFresh(fmt.Sprintf("key-%03d", i), c.Snapshot(nil), fixed("v"), 128)
	}
	if c.Bytes() > budget {
		t.Fatalf("cache holds %d bytes over the %d budget", c.Bytes(), budget)
	}
	if c.Len() == 0 {
		t.Fatal("eviction must leave recent entries behind")
	}
}

// TestCacheInvalidateByFriend: a friend's write drops exactly the entries
// it reaches that cannot absorb it.
func TestCacheInvalidateByFriend(t *testing.T) {
	c := NewResultCache(1 << 20)
	c.StoreIfFresh("a", c.Snapshot([]int64{1, 2}), fixed("a"), 64)
	c.StoreIfFresh("b", c.Snapshot([]int64{3, 4}), fixed("b"), 64)
	write(c, by(2))
	if _, ok := get(c, "a"); ok {
		t.Fatal("entry that refused its friend's write must be gone")
	}
	if _, ok := get(c, "b"); !ok {
		t.Fatal("unrelated entry must survive")
	}
	// A write by an unknown user is a no-op.
	write(c, by(999))
	if _, ok := get(c, "b"); !ok {
		t.Fatal("a stranger's write must not evict")
	}
}

// TestCacheApplyPatchesByWriter: a batch reaches each entry once per writer
// in its friend set, with that writer's visits only, and is counted.
func TestCacheApplyPatchesByWriter(t *testing.T) {
	c := NewResultCache(1 << 20)
	both, one, none := &sums{}, &sums{}, &sums{}
	c.StoreIfFresh("both", c.Snapshot([]int64{1, 2}), both, 64)
	c.StoreIfFresh("one", c.Snapshot([]int64{2, 3}), one, 64)
	c.StoreIfFresh("none", c.Snapshot([]int64{4}), none, 64)
	patches0 := mCachePatches.Value()
	write(c, by(1, 1, 1, 2, 2, 9))
	if both.n != 5 || one.n != 2 || none.n != 0 {
		t.Fatalf("folded %d / %d / %d visits, want 5 / 2 / 0", both.n, one.n, none.n)
	}
	if got := mCachePatches.Value() - patches0; got != 7 {
		t.Fatalf("matview_cache_patches_total moved by %d, want 7", got)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d: patching must not drop entries", c.Len())
	}
}

func TestCacheStaleSnapshotRejected(t *testing.T) {
	c := NewResultCache(1 << 20)
	friends := []int64{7}
	snap := c.Snapshot(friends)
	// A write is announced between the snapshot and the store: the scan may
	// or may not have seen its rows, so the store must lose.
	vs := by(7)
	c.Announce(vs)
	if c.StoreIfFresh("k", snap, fixed("stale"), 64) {
		t.Fatal("store with a stale epoch snapshot must be rejected")
	}
	// So must one whose snapshot was taken while the write was in flight.
	if c.StoreIfFresh("k", c.Snapshot(friends), fixed("stale"), 64) {
		t.Fatal("store snapshotted under an in-flight write must be rejected")
	}
	if _, ok := get(c, "k"); ok {
		t.Fatal("rejected store must not be visible")
	}
	c.Apply(vs)
	// A fresh snapshot taken after the write settled stores fine.
	if !c.StoreIfFresh("k", c.Snapshot(friends), fixed("fresh"), 64) {
		t.Fatal("post-write snapshot must store")
	}
}

// TestCacheReplacementStaysInvalidatable pins the replacement ordering
// bug: storing the same key twice (two identical queries racing the same
// miss) must leave the surviving entry registered in the friend index, so
// a later friend check-in still reaches it.
func TestCacheReplacementStaysInvalidatable(t *testing.T) {
	c := NewResultCache(1 << 20)
	friends := []int64{11, 12}
	if !c.StoreIfFresh("k", c.Snapshot(friends), fixed("first"), 64) {
		t.Fatal("first store must succeed")
	}
	if !c.StoreIfFresh("k", c.Snapshot(friends), fixed("second"), 64) {
		t.Fatal("replacement store must succeed")
	}
	write(c, by(11))
	if _, ok := get(c, "k"); ok {
		t.Fatal("replaced entry survived a check-in it cannot absorb")
	}
	c.indexMu.Lock()
	registered := len(c.byFriend)
	c.indexMu.Unlock()
	if registered != 0 {
		t.Fatalf("%d friends still indexed with no entry left", registered)
	}
}

// TestCacheEpochsBounded checks the write-tracking maps do not grow with
// the distinct-writer population: epochs exist only while a snapshot holds
// them, in-flight writers only between announce and settle, and settling
// (store, reject, release; apply, abandon) prunes them.
func TestCacheEpochsBounded(t *testing.T) {
	c := NewResultCache(1 << 20)
	// Writes by users nobody queried leave no state behind, committed or
	// failed.
	for uid := int64(0); uid < 1000; uid++ {
		vs := by(uid)
		c.Announce(vs)
		if uid%2 == 0 {
			c.Apply(vs)
		} else {
			c.Abandon(vs)
		}
	}
	// A stored entry keeps its friends indexed but pins no epochs once the
	// snapshot is settled; an abandoned snapshot releases explicitly.
	if !c.StoreIfFresh("k", c.Snapshot([]int64{1, 2}), fixed("v"), 64) {
		t.Fatal("store must succeed")
	}
	abandoned := c.Snapshot([]int64{3})
	// Two overlapping writes by user 3: the first bumps the epoch the
	// snapshot holds, and the writer stays in flight until both settle.
	a, b := by(3), by(3, 3)
	c.Announce(a)
	c.Announce(b)
	c.Apply(a)
	c.indexMu.Lock()
	inflight := c.inflight[3]
	c.indexMu.Unlock()
	if inflight != 1 {
		t.Fatalf("inflight[3] = %d with one of two writes settled, want 1", inflight)
	}
	c.Abandon(b)
	abandoned.Release()
	abandoned.Release() // idempotent
	c.indexMu.Lock()
	epochs, pending, inflight := len(c.epochs), len(c.pending), len(c.inflight)
	c.indexMu.Unlock()
	if epochs != 0 || pending != 0 || inflight != 0 {
		t.Fatalf("epochs/pending/inflight = %d/%d/%d after settling everything, want 0/0/0", epochs, pending, inflight)
	}
	// The friend index still reaches the cached entry.
	write(c, by(2))
	if _, ok := get(c, "k"); ok {
		t.Fatal("entry must still be reachable without epoch state")
	}
}

// TestCacheAbandonDropsWritersEntries: a failed write may have applied in
// part, so the writers' entries go, patchable or not, and nothing is folded.
func TestCacheAbandonDropsWritersEntries(t *testing.T) {
	c := NewResultCache(1 << 20)
	mine, other := &sums{}, &sums{}
	c.StoreIfFresh("mine", c.Snapshot([]int64{1}), mine, 64)
	c.StoreIfFresh("other", c.Snapshot([]int64{2}), other, 64)
	vs := by(1)
	c.Announce(vs)
	c.Abandon(vs)
	if _, ok := get(c, "mine"); ok || mine.n != 0 {
		t.Fatalf("failed write: entry kept = %v, visits folded = %d; want dropped, 0", ok, mine.n)
	}
	if _, ok := get(c, "other"); !ok {
		t.Fatal("a failed write must not touch other users' entries")
	}
}

// TestCacheBytesConservation runs a random sequence of stores, patches that
// grow entries, refused patches, failed writes and the evictions they cause,
// and checks after every step that the charged total is the sum of the live
// entries' charges — and zero, with an empty index, once the cache is empty.
func TestCacheBytesConservation(t *testing.T) {
	c := NewResultCache(16 * 4096)
	rng := rand.New(rand.NewSource(5))
	check := func(step int) {
		t.Helper()
		var sum, entries int64
		for i := range c.shards {
			s := &c.shards[i]
			var shard int64
			for _, e := range s.items {
				shard += e.size
				entries++
			}
			if shard != s.bytes {
				t.Fatalf("step %d: shard %d charges %d, its entries sum to %d", step, i, s.bytes, shard)
			}
			if s.bytes > c.shardBytes {
				t.Fatalf("step %d: shard %d holds %d bytes over its %d budget", step, i, s.bytes, c.shardBytes)
			}
			sum += shard
		}
		if c.Bytes() != sum || c.liveBytes.Load() != sum || c.liveEntries.Load() != entries {
			t.Fatalf("step %d: Bytes %d / gauge %d / entries gauge %d, live entries hold %d in %d",
				step, c.Bytes(), c.liveBytes.Load(), c.liveEntries.Load(), sum, entries)
		}
	}
	users := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(rng.Intn(12))
		}
		return out
	}
	for step := 0; step < 3000; step++ {
		switch rng.Intn(4) {
		case 0, 1:
			var v Value = fixed("v")
			if rng.Intn(3) > 0 {
				v = &sums{grow: int64(rng.Intn(400))}
			}
			c.StoreIfFresh(fmt.Sprintf("k%d", rng.Intn(80)), c.Snapshot(users(1+rng.Intn(4))), v, int64(64+rng.Intn(1024)))
		case 2:
			write(c, by(users(1+rng.Intn(6))...))
		default:
			vs := by(users(1 + rng.Intn(2))...)
			c.Announce(vs)
			c.Abandon(vs)
		}
		check(step)
	}
	// Every entry has a friend among the twelve users: failing a write by
	// each empties the cache.
	for u := int64(0); u < 12; u++ {
		vs := by(u)
		c.Announce(vs)
		c.Abandon(vs)
	}
	check(-1)
	if c.Len() != 0 || c.Bytes() != 0 || len(c.byFriend) != 0 {
		t.Fatalf("emptied cache holds %d entries, %d bytes, %d indexed friends", c.Len(), c.Bytes(), len(c.byFriend))
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
				if _, ok := get(c, key); !ok {
					var v Value = fixed("v")
					if i%2 == 0 {
						v = &sums{grow: 64}
					}
					c.StoreIfFresh(key, c.Snapshot(friends), v, 64)
				}
				if i%17 == 0 {
					write(c, by(friends...))
				}
			}
		}(g)
	}
	wg.Wait()
}
