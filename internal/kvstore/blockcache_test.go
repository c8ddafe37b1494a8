package kvstore

import (
	"fmt"
	"sync"
	"testing"
)

// cacheFootprint sums the cache's shards: bytes held and entries.
func cacheFootprint(c *BlockCache) (bytes, entries int64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		bytes += s.bytes
		entries += int64(len(s.entries))
		s.mu.Unlock()
	}
	return bytes, entries
}

func TestBlockCacheHitMissEvict(t *testing.T) {
	// One shard's capacity is total/16; keys that land in the same shard
	// exercise the LRU. Use enough insertions to evict regardless of the
	// hash spread.
	c := NewBlockCache(16 * 100) // 100 bytes per shard
	cells := []Cell{{Row: "r", Qualifier: "q", Timestamp: 1}}
	if got := c.get(blockKey{seg: 1, idx: 0}); got != nil {
		t.Fatal("empty cache returned an entry")
	}
	c.put(blockKey{seg: 1, idx: 0}, cells, 60)
	if got := c.get(blockKey{seg: 1, idx: 0}); got == nil {
		t.Fatal("inserted entry not found")
	}
	if bytes, entries := cacheFootprint(c); bytes != 60 || entries != 1 {
		t.Fatalf("after one insert: %d bytes in %d entries, want 60 in 1", bytes, entries)
	}
	// Fill every shard past capacity; evictions must keep resident bytes
	// within budget (one 60-byte entry per 100-byte shard).
	for i := 0; i < 200; i++ {
		c.put(blockKey{seg: 2, idx: i}, cells, 60)
	}
	bytes, entries := cacheFootprint(c)
	if entries > 16 {
		t.Fatalf("%d entries cached: evictions did not keep each shard to one", entries)
	}
	if bytes > 16*100 {
		t.Fatalf("resident %d bytes exceeds capacity", bytes)
	}
}

func TestBlockCacheLRUOrder(t *testing.T) {
	// Two 40-byte entries fit in a 100-byte shard; touching the first makes
	// the second the eviction victim when a third arrives. Use idx values
	// that map to one shard by fixing seg and probing shard assignment.
	c := NewBlockCache(16 * 100)
	var keys []blockKey
	for i := 0; keys == nil || len(keys) < 3; i++ {
		k := blockKey{seg: 9, idx: i}
		if k.shard() == 0 {
			keys = append(keys, k)
		}
	}
	cells := []Cell{{Row: "r"}}
	c.put(keys[0], cells, 40)
	c.put(keys[1], cells, 40)
	c.get(keys[0]) // refresh key 0; key 1 becomes LRU
	c.put(keys[2], cells, 40)
	if c.get(keys[1]) != nil {
		t.Fatal("LRU entry survived eviction")
	}
	if c.get(keys[0]) == nil || c.get(keys[2]) == nil {
		t.Fatal("recently used entries were evicted")
	}
}

func TestBlockCacheOversizedEntrySkipped(t *testing.T) {
	c := NewBlockCache(16 * 100)
	c.put(blockKey{seg: 3, idx: 0}, []Cell{{Row: "r"}}, 1000) // > shard capacity
	if got := c.get(blockKey{seg: 3, idx: 0}); got != nil {
		t.Fatal("oversized entry was cached")
	}
	if bytes, entries := cacheFootprint(c); bytes != 0 || entries != 0 {
		t.Fatalf("oversized insert changed accounting: %d bytes in %d entries", bytes, entries)
	}
}

func TestBlockCacheNilSafe(t *testing.T) {
	var c *BlockCache
	if got := c.get(blockKey{seg: 1}); got != nil {
		t.Fatal("nil cache returned an entry")
	}
	c.put(blockKey{seg: 1}, nil, 10) // must not panic
	if NewBlockCache(0) != nil || NewBlockCache(-5) != nil {
		t.Fatal("non-positive capacity must yield the nil cache")
	}
}

func TestBlockCacheConcurrent(t *testing.T) {
	c := NewBlockCache(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cells := []Cell{{Row: fmt.Sprintf("g%d", g)}}
			for i := 0; i < 500; i++ {
				k := blockKey{seg: uint64(g % 4), idx: i % 50}
				if got := c.get(k); got == nil {
					c.put(k, cells, 64)
				}
			}
		}(g)
	}
	wg.Wait()
	// Nothing was evicted: every one of the 200 keys is cached exactly once,
	// with its bytes accounted once.
	if bytes, entries := cacheFootprint(c); entries != 200 || bytes != 200*64 {
		t.Fatalf("%d bytes in %d entries, want %d in 200", bytes, entries, 200*64)
	}
}
