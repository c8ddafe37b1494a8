package matview

import (
	"container/list"
	"sync"
	"sync/atomic"

	"modissense/internal/model"
)

// cacheShards splits the LRU into independently locked shards so hits on
// the hot read path never contend on the friend index.
const cacheShards = 16

// Per-entry bookkeeping charged against the byte budget on top of the
// caller-reported value size and the key's bytes: entryOverheadBytes covers
// the entry struct, its LRU list element and its slot in the shard's key
// map; friendBytes covers one friend — its slot in the entry's friend list
// and the entry's registration in that friend's index slice, at the slack an
// appended-to slice carries.
const (
	entryOverheadBytes = 192
	friendBytes        = 8 + 16
)

// Value is what the cache memoizes: state derived from the visits of a
// friend set, which a later visit by one of those friends either folds into
// or makes untrustworthy. The cache calls Patch, and runs Get's read
// callback, under the lock of the entry's shard, so a value needs no
// synchronization of its own.
type Value interface {
	// Patch folds committed visits, all by one user of the value's friend
	// set, into the value. It reports how many it folded (a visit the
	// value's predicates reject changes nothing and is not counted), by how
	// many bytes the value grew, and whether the value is still exactly what
	// a recomputation would produce; on false the cache drops the entry, so
	// the value may be left half patched.
	Patch(visits []model.Visit) (folded int, grew int64, exact bool)
}

// entry is one cached value plus the bookkeeping to unregister it. elem is
// nil once the entry has left its shard.
type entry struct {
	key     string
	value   Value
	size    int64
	friends []int64
	shard   *cacheShard
	elem    *list.Element
}

// cacheShard is one LRU partition: a key map plus a recency list with the
// most recent entry at the front.
type cacheShard struct {
	mu    sync.Mutex
	items map[string]*entry
	lru   *list.List
	bytes int64
}

// ResultCache memoizes personalized query state keyed by the normalized
// query spec. It is a sharded LRU bounded by bytes, with three pieces of
// write-tracking state shared across shards:
//
//   - an index from friend (user) id to the entries whose friend set
//     contains it, so a check-in reaches exactly the entries it changes;
//   - the writers with a batch in flight — announced, not yet settled;
//   - a monotone epoch per friend, bumped by every announcement made while
//     a query holds a Snapshot of that friend.
//
// A committed batch is folded into the entries it reaches (Apply) instead
// of dropping them, so an entry must never already contain a row that is
// going to be folded in: the write is announced before the table makes it
// visible and settled after. A query that snapshots while a friend's write
// is in flight, or whose friend's write is announced before its store, may
// or may not have scanned the new rows, and its store is refused
// (StoreIfFresh); one that snapshots after the settle has scanned them all
// and nothing is folded again. Snapshots are reference counted (pending):
// an epoch exists only while a snapshot holds its user, and in-flight
// writers only between announce and settle, so both maps are bounded by
// what is in flight, not by the user population.
type ResultCache struct {
	shardBytes int64
	shards     [cacheShards]cacheShard

	// liveBytes/liveEntries mirror the summed shard accounting so gauges
	// publish without touching any shard mutex.
	liveBytes   atomic.Int64
	liveEntries atomic.Int64

	// indexMu guards byFriend, inflight, epochs and pending. Lock order:
	// indexMu before any shard mu; Get takes only the shard mu.
	indexMu  sync.Mutex
	byFriend map[int64][]*entry
	inflight map[int64]int
	epochs   map[int64]uint64
	pending  map[int64]int
}

// NewResultCache builds a cache bounded at maxBytes across all shards.
func NewResultCache(maxBytes int64) *ResultCache {
	if maxBytes < cacheShards {
		maxBytes = cacheShards
	}
	c := &ResultCache{
		shardBytes: maxBytes / cacheShards,
		byFriend:   map[int64][]*entry{},
		inflight:   map[int64]int{},
		epochs:     map[int64]uint64{},
		pending:    map[int64]int{},
	}
	for i := range c.shards {
		c.shards[i] = cacheShard{items: map[string]*entry{}, lru: list.New()}
	}
	return c
}

// fnv1a hashes a key to pick its shard.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (c *ResultCache) shard(key string) *cacheShard {
	return &c.shards[fnv1a(key)%cacheShards]
}

// Get looks key up and, on a hit, refreshes its recency and hands the value
// to read under the shard's lock — the lock patches run under, so read sees
// a value with every settled batch folded in whole, and may itself update
// what the value derives from them. read must not call back into the cache.
func (c *ResultCache) Get(key string, read func(Value)) bool {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.items[key]
	if ok {
		s.lru.MoveToFront(e.elem)
		read(e.value)
	}
	s.mu.Unlock()
	if ok {
		mCacheHits.Inc()
	} else {
		mCacheMisses.Inc()
	}
	return ok
}

// EpochSnapshot is a claim on the epochs of one query's friend set, taken
// before the query's scan. It must be settled exactly once: StoreIfFresh
// consumes it, and any path that abandons the store (scan error, degraded
// answer) must call Release instead. While unsettled it pins the friends'
// epoch entries so a write announced meanwhile is guaranteed to be visible
// to the freshness check.
type EpochSnapshot struct {
	c       *ResultCache
	friends []int64
	epochs  []uint64
	// stale marks a snapshot taken while a friend had a write in flight.
	stale    bool
	released bool
}

// Snapshot captures the current epoch of every given friend and registers
// the claim that keeps those epochs live. Take it before running the
// query's scan and hand it to StoreIfFresh (which consumes it) or Release
// it if the result is never stored.
func (c *ResultCache) Snapshot(friends []int64) *EpochSnapshot {
	s := &EpochSnapshot{c: c, friends: friends, epochs: make([]uint64, len(friends))}
	c.indexMu.Lock()
	for i, f := range friends {
		s.epochs[i] = c.epochs[f]
		c.pending[f]++
		if c.inflight[f] > 0 {
			s.stale = true
		}
	}
	c.indexMu.Unlock()
	return s
}

// Release drops the snapshot's claim without storing. Idempotent and
// nil-safe; StoreIfFresh releases internally, so only abandoned snapshots
// need an explicit call.
func (s *EpochSnapshot) Release() {
	if s == nil {
		return
	}
	s.c.indexMu.Lock()
	s.releaseLocked()
	s.c.indexMu.Unlock()
}

// releaseLocked returns the snapshot's pending claims and prunes the
// epoch entries nobody holds anymore: once the last claim on a user is
// gone, no outstanding snapshot can ever compare against their epoch, so
// dropping it is safe and keeps the map bounded. Called with indexMu
// held.
func (s *EpochSnapshot) releaseLocked() {
	if s.released {
		return
	}
	s.released = true
	for _, f := range s.friends {
		if n := s.c.pending[f]; n > 1 {
			s.c.pending[f] = n - 1
		} else {
			delete(s.c.pending, f)
			delete(s.c.epochs, f)
		}
	}
}

// StoreIfFresh inserts a value computed for snap's friend set, unless a
// friend had a write in flight when snap was taken or had one announced
// since (the value may hold rows the settle is going to fold in again, or
// lack rows it already folded) or the value alone exceeds a shard's budget.
// The snapshot is consumed — released whether or not the value is stored.
// valueBytes is the caller's count of the bytes the value retains; key,
// friend list and index registrations are charged on top. Reports whether
// the value was stored.
func (c *ResultCache) StoreIfFresh(key string, snap *EpochSnapshot, value Value, valueBytes int64) bool {
	var friends []int64
	if snap != nil {
		friends = snap.friends
	}
	size := valueBytes + int64(len(key)) + int64(len(friends))*friendBytes + entryOverheadBytes
	c.indexMu.Lock()
	defer c.indexMu.Unlock()
	if snap != nil {
		defer snap.releaseLocked()
	}
	if size > c.shardBytes {
		return false
	}
	if snap != nil {
		stale := snap.stale
		for i, f := range snap.friends {
			stale = stale || c.epochs[f] != snap.epochs[i]
		}
		if stale {
			mCacheStaleStores.Inc()
			return false
		}
	}
	s := c.shard(key)
	s.mu.Lock()
	// Unregister a replaced entry BEFORE registering the new one's
	// friends, so the index never holds two entries for one key.
	if old, ok := s.items[key]; ok {
		c.removeLocked(old)
		c.unregisterLocked(old)
	}
	e := &entry{key: key, value: value, size: size, friends: friends, shard: s}
	for _, f := range friends {
		c.byFriend[f] = append(c.byFriend[f], e)
	}
	e.elem = s.lru.PushFront(e)
	s.items[key] = e
	s.bytes += size
	c.liveBytes.Add(size)
	c.liveEntries.Add(1)
	for _, victim := range c.evictLocked(s) {
		c.unregisterLocked(victim)
	}
	s.mu.Unlock()
	c.publishGauges()
	return true
}

// removeLocked detaches e from its shard's map, list, byte account and
// the cache-wide gauge counters. Called with the shard's mu held.
func (c *ResultCache) removeLocked(e *entry) {
	s := e.shard
	delete(s.items, e.key)
	s.lru.Remove(e.elem)
	e.elem = nil
	s.bytes -= e.size
	c.liveBytes.Add(-e.size)
	c.liveEntries.Add(-1)
}

// evictLocked removes least-recently-read entries until s is back inside
// its budget and returns them for the caller to unregister. Called with
// s.mu held.
func (c *ResultCache) evictLocked(s *cacheShard) []*entry {
	var victims []*entry
	for s.bytes > c.shardBytes {
		back := s.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		c.removeLocked(victim)
		victims = append(victims, victim)
		mCacheEvictions.Inc()
	}
	return victims
}

// unregisterLocked removes e from every friend's index slice. Called with
// indexMu held.
func (c *ResultCache) unregisterLocked(e *entry) {
	for _, f := range e.friends {
		es := c.byFriend[f]
		for i := range es {
			if es[i] == e {
				es[i] = es[len(es)-1]
				es[len(es)-1] = nil
				es = es[:len(es)-1]
				break
			}
		}
		if len(es) == 0 {
			delete(c.byFriend, f)
		} else {
			c.byFriend[f] = es
		}
	}
}

// writerRun cuts the leading run of visits by one user off visits. A
// /checkins batch is one run; a collector batch is a few.
func writerRun(visits []model.Visit) (run, rest []model.Visit) {
	n := 0
	for n < len(visits) && visits[n].UserID == visits[0].UserID {
		n++
	}
	return visits[:n], visits[n:]
}

// Announce declares that the given visits are about to be written: until
// they are settled with the same slice (Apply or Abandon), their writers
// count as in flight, and every snapshot currently holding one of them goes
// stale. The Visits repository calls it before the table write, so no query
// can scan a row of the batch and still store what it computed.
func (c *ResultCache) Announce(visits []model.Visit) {
	c.indexMu.Lock()
	for run, rest := writerRun(visits); len(run) > 0; run, rest = writerRun(rest) {
		w := run[0].UserID
		c.inflight[w]++
		if c.pending[w] > 0 {
			c.epochs[w]++
		}
	}
	c.indexMu.Unlock()
}

// Apply settles an announced batch the table committed: each visit is
// folded into every entry whose friend set contains its writer (Value.Patch,
// one call per entry and writer), and an entry whose value cannot absorb it
// exactly, or that outgrows its shard doing so, is dropped instead. Entries
// that grew are charged the growth, which may evict others.
func (c *ResultCache) Apply(visits []model.Visit) { c.settle(visits, true) }

// Abandon settles an announced batch whose table write failed. A write that
// fails after it was logged may have applied to some regions, so the
// writers' entries are dropped rather than trusted; nothing is folded.
func (c *ResultCache) Abandon(visits []model.Visit) { c.settle(visits, false) }

func (c *ResultCache) settle(visits []model.Visit, committed bool) {
	var folded, dropped int64
	// gone collects the entries that left their shard during this call; they
	// stay in the index slices being walked until the walk is over.
	var gone []*entry
	c.indexMu.Lock()
	for run, rest := writerRun(visits); len(run) > 0; run, rest = writerRun(rest) {
		w := run[0].UserID
		if n := c.inflight[w]; n > 1 {
			c.inflight[w] = n - 1
		} else {
			delete(c.inflight, w)
		}
		for _, e := range c.byFriend[w] {
			s := e.shard
			s.mu.Lock()
			if e.elem == nil { // dropped or evicted earlier in this call
				s.mu.Unlock()
				continue
			}
			n, grew, exact := 0, int64(0), false
			if committed {
				n, grew, exact = e.value.Patch(run)
			}
			if !exact || e.size+grew > c.shardBytes {
				c.removeLocked(e)
				gone = append(gone, e)
				dropped++
			} else {
				folded += int64(n)
				e.size += grew
				s.bytes += grew
				c.liveBytes.Add(grew)
				gone = append(gone, c.evictLocked(s)...)
			}
			s.mu.Unlock()
		}
	}
	for _, e := range gone {
		c.unregisterLocked(e)
	}
	c.indexMu.Unlock()
	mCachePatches.Add(folded)
	mCacheInvalidations.Add(dropped)
	c.publishGauges()
}

// publishGauges pushes the incrementally maintained size counters to the
// registry. Lock-free, so it is cheap enough to run on every mutation.
func (c *ResultCache) publishGauges() {
	mCacheBytes.Set(c.liveBytes.Load())
	mCacheEntries.Set(c.liveEntries.Load())
}

// Len returns the live entry count.
func (c *ResultCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Bytes returns the charged byte total.
func (c *ResultCache) Bytes() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}
