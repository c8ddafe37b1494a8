package kvstore

import (
	"sync"
	"sync/atomic"
)

// BlockCache is the byte budget and eviction order of decoded segment
// blocks. The decoded blocks themselves hang off their segments, one slot
// per block (segment.slots), so a hit is one atomic load of the slot and
// touches nothing shared here. Only a miss takes the cache's mutex: it
// admits the block to one CLOCK ring, charged at its logical cell
// footprint, and the hand makes room by clearing reference bits and
// evicting the first entry it finds unreferenced (swapping its slot to
// nil). As in SIEVE, admissions join the ring at its newest end, wherever
// the hand is: a block read once and not again is met by the hand within
// the sweep under way, while an entry that survived a pass stays where it
// is until the next one.
//
// Segments are immutable, so cached blocks are never invalidated in place.
// A retired segment's slots become unreachable with it: its entries can no
// longer be hit or revived, and the hand evicts them once it has cleared
// their reference bits.
type BlockCache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	// The ring runs oldest to newest through cachedBlock.next and wraps.
	// hand is the next entry the sweep examines and prev the one before it;
	// admissions go in after newest.
	hand, prev, newest *cachedBlock
}

// cachedBlock is one decoded block resident in a BlockCache.
type cachedBlock struct {
	cells []Cell
	size  int64
	// ref is the CLOCK reference bit: set by hits, cleared by the hand.
	ref  atomic.Bool
	slot *atomic.Pointer[cachedBlock] // the segment slot that holds it
	next *cachedBlock
}

// DefaultBlockCacheBytes sizes the process-wide default block cache used
// by stores whose options leave BlockCache nil.
const DefaultBlockCacheBytes = 64 << 20

// NewBlockCache builds a cache holding up to capacityBytes of decoded
// block data. capacityBytes <= 0 returns nil — the "uncached" cache: every
// lookup on a nil *BlockCache misses and every insert is dropped.
func NewBlockCache(capacityBytes int64) *BlockCache {
	if capacityBytes <= 0 {
		return nil
	}
	return &BlockCache{capacity: capacityBytes}
}

// defaultBlockCache serves every store that does not bring its own cache,
// so all tables in a process share one budget by default.
var defaultBlockCache = NewBlockCache(DefaultBlockCacheBytes)

// lookup returns the decoded cells slot holds, or nil on a miss, and marks
// a hit entry referenced. It takes no lock and writes nothing shared unless
// the reference bit was clear. Nil-safe: the nil cache always misses.
func (c *BlockCache) lookup(slot *atomic.Pointer[cachedBlock]) []Cell {
	if c == nil {
		return nil
	}
	e := slot.Load()
	if e == nil {
		return nil
	}
	if !e.ref.Load() {
		e.ref.Store(true)
	}
	return e.cells
}

// admit caches a block's decoded cells in slot, sweeping the ring until
// they fit. A block larger than the whole budget is not cached; a slot a
// racing decoder filled first keeps its entry. Nil-safe.
func (c *BlockCache) admit(slot *atomic.Pointer[cachedBlock], cells []Cell, size int64) {
	if c == nil || size > c.capacity {
		return
	}
	var evictedBytes, evicted int64
	c.mu.Lock()
	if slot.Load() != nil {
		c.mu.Unlock()
		return
	}
	for c.bytes+size > c.capacity && c.hand != nil {
		e := c.hand
		if e.ref.Load() {
			e.ref.Store(false)
			c.prev, c.hand = e, e.next
			continue
		}
		evictedBytes += c.evictHand()
		evicted++
	}
	e := &cachedBlock{cells: cells, size: size, slot: slot}
	if c.hand == nil {
		e.next, c.hand, c.prev = e, e, e
	} else {
		e.next, c.newest.next = c.newest.next, e
		if c.prev == c.newest {
			c.prev = e
		}
	}
	c.newest = e
	slot.Store(e)
	c.bytes += size
	c.mu.Unlock()
	mBlockCacheBytes.Add(size - evictedBytes)
	mBlockCacheEntries.Add(1 - evicted)
	mBlockCacheEvictions.Add(evicted)
}

// evictHand evicts the entry under the hand and returns its size: its slot
// stops serving it, its bytes leave the budget and the hand moves to its
// successor. The caller holds c.mu and moves the gauges.
func (c *BlockCache) evictHand() int64 {
	e := c.hand
	e.slot.CompareAndSwap(e, nil)
	c.bytes -= e.size
	if e.next == e {
		c.hand, c.prev, c.newest = nil, nil, nil
	} else {
		c.prev.next = e.next
		c.hand = e.next
		if c.newest == e {
			c.newest = c.prev
		}
	}
	e.next = nil
	return e.size
}

// Release drops every entry and gives its bytes back to the
// kvstore_block_cache_* gauges. A platform that owns its cache calls it on
// close, so the gauges return to what they were before it started. The
// cache stays usable. Nil-safe.
func (c *BlockCache) Release() {
	if c == nil {
		return
	}
	var bytes, entries int64
	c.mu.Lock()
	for c.hand != nil {
		bytes += c.evictHand()
		entries++
	}
	c.mu.Unlock()
	mBlockCacheBytes.Add(-bytes)
	mBlockCacheEntries.Add(-entries)
}
