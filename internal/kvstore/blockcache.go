package kvstore

import "sync"

// BlockCache is a sharded, byte-capacity LRU over decoded segment blocks.
// Keys are (segment cacheID, block index); values are the materialized
// []Cell slices, charged at their logical cell footprint. Sharding (16
// ways by key hash) keeps lock contention off the multi-region scan path;
// each shard runs an intrusive doubly-linked LRU list under its own mutex.
//
// Segments are immutable, so cached blocks are never invalidated in place:
// when a compaction retires a segment its blocks simply stop being
// requested and age out of the LRU. Segment cacheIDs come from a global
// atomic counter, so entries can never be revived by an ID reuse.
type BlockCache struct {
	shards   [blockCacheShards]blockCacheShard
	capacity int64 // per-shard byte capacity
}

// blockCacheShards is the fixed shard count; a power of two so the key
// hash reduces with a mask.
const blockCacheShards = 16

// DefaultBlockCacheBytes sizes the process-wide default block cache used
// by stores whose options leave BlockCache nil.
const DefaultBlockCacheBytes = 64 << 20

// blockKey addresses one decoded block.
type blockKey struct {
	seg uint64 // segment cacheID (globally unique, never reused)
	idx int    // block index within the segment
}

type blockCacheShard struct {
	mu      sync.Mutex
	entries map[blockKey]*blockCacheEntry
	// head is most-recently-used, tail least. Intrusive list: entries link
	// themselves, no container/list allocation per touch.
	head, tail *blockCacheEntry
	bytes      int64
}

type blockCacheEntry struct {
	key        blockKey
	cells      []Cell
	size       int64
	prev, next *blockCacheEntry
}

// NewBlockCache builds a cache holding up to capacityBytes of decoded
// block data. capacityBytes <= 0 returns nil — the "uncached" cache: every
// lookup on a nil *BlockCache misses and every insert is dropped.
func NewBlockCache(capacityBytes int64) *BlockCache {
	if capacityBytes <= 0 {
		return nil
	}
	perShard := capacityBytes / blockCacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &BlockCache{capacity: perShard}
	for i := range c.shards {
		c.shards[i].entries = make(map[blockKey]*blockCacheEntry)
	}
	return c
}

// defaultBlockCache serves every store that does not bring its own cache,
// so all tables in a process share one budget by default.
var defaultBlockCache = NewBlockCache(DefaultBlockCacheBytes)

func (k blockKey) shard() uint64 {
	h := k.seg*0x9e3779b97f4a7c15 + uint64(k.idx)*0xff51afd7ed558ccd
	return (h >> 32) % blockCacheShards
}

// get returns the cached decoded cells for key, or nil on miss. Nil-safe.
func (c *BlockCache) get(k blockKey) []Cell {
	if c == nil {
		return nil
	}
	s := &c.shards[k.shard()]
	s.mu.Lock()
	e, ok := s.entries[k]
	if ok {
		s.moveToFront(e)
	}
	s.mu.Unlock()
	if !ok {
		mBlockCacheMisses.Add(1)
		return nil
	}
	mBlockCacheHits.Add(1)
	return e.cells
}

// put inserts decoded cells for key, evicting LRU entries to fit. Entries
// larger than a whole shard are not cached. Nil-safe.
func (c *BlockCache) put(k blockKey, cells []Cell, size int64) {
	if c == nil || size > c.capacity {
		return
	}
	s := &c.shards[k.shard()]
	var evictedBytes, evictedCount int64
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		// Racing decoders can insert the same block twice; keep the first.
		s.moveToFront(e)
		s.mu.Unlock()
		return
	}
	e := &blockCacheEntry{key: k, cells: cells, size: size}
	s.entries[k] = e
	s.pushFront(e)
	s.bytes += size
	for s.bytes > c.capacity && s.tail != nil {
		victim := s.tail
		s.remove(victim)
		delete(s.entries, victim.key)
		s.bytes -= victim.size
		evictedBytes += victim.size
		evictedCount++
	}
	s.mu.Unlock()
	mBlockCacheBytes.Add(size - evictedBytes)
	mBlockCacheEntries.Add(1 - evictedCount)
	if evictedCount > 0 {
		mBlockCacheEvictions.Add(evictedCount)
	}
}

func (s *blockCacheShard) pushFront(e *blockCacheEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *blockCacheShard) remove(e *blockCacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *blockCacheShard) moveToFront(e *blockCacheEntry) {
	if s.head == e {
		return
	}
	s.remove(e)
	s.pushFront(e)
}
