package kvstore

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"modissense/internal/obs"
)

// ringFootprint walks the cache's ring: bytes and entries it holds. It
// fails the test when the walk disagrees with the cache's own accounting
// or an entry is not what its slot serves.
func ringFootprint(t *testing.T, c *BlockCache) (bytes, entries int64) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.hand; e != nil {
		for {
			bytes += e.size
			entries++
			if e.slot.Load() != e {
				t.Fatalf("ring entry of %d bytes is not in its slot", e.size)
			}
			if e = e.next; e == c.hand {
				break
			}
		}
		if c.prev.next != c.hand {
			t.Fatal("prev does not precede the hand")
		}
	}
	if bytes != c.bytes {
		t.Fatalf("ring holds %d bytes in %d entries, cache accounts %d bytes", bytes, entries, c.bytes)
	}
	return bytes, entries
}

func testCells(tag string) []Cell { return []Cell{{Row: tag, Qualifier: "q", Timestamp: 1}} }

func TestBlockCacheNeverExceedsBudget(t *testing.T) {
	const capacity = 1000
	c := NewBlockCache(capacity)
	slots := make([]atomic.Pointer[cachedBlock], 300)
	rng := rand.New(rand.NewSource(5))
	bytesBefore, entriesBefore := mBlockCacheBytes.Value(), mBlockCacheEntries.Value()
	for i := 0; i < 3000; i++ {
		k := rng.Intn(len(slots))
		if c.lookup(&slots[k]) == nil {
			c.admit(&slots[k], testCells(fmt.Sprint(k)), int64(1+rng.Intn(300)))
		}
		bytes, entries := ringFootprint(t, c)
		if bytes > capacity {
			t.Fatalf("after admission %d: %d bytes resident, budget %d", i, bytes, capacity)
		}
		filled := int64(0)
		for j := range slots {
			if slots[j].Load() != nil {
				filled++
			}
		}
		if filled != entries {
			t.Fatalf("after admission %d: %d slots filled, %d entries in the ring", i, filled, entries)
		}
	}
	if got := mBlockCacheBytes.Value() - bytesBefore; got != c.bytes {
		t.Fatalf("resident-bytes gauge moved %d, cache holds %d", got, c.bytes)
	}
	c.Release()
	if b, e := mBlockCacheBytes.Value(), mBlockCacheEntries.Value(); b != bytesBefore || e != entriesBefore {
		t.Fatalf("after Release the gauges read %d bytes, %d entries; want %d, %d", b, e, bytesBefore, entriesBefore)
	}
	for j := range slots {
		if slots[j].Load() != nil {
			t.Fatalf("slot %d still filled after Release", j)
		}
	}
	if bytes, entries := ringFootprint(t, c); bytes != 0 || entries != 0 {
		t.Fatalf("released cache holds %d bytes in %d entries", bytes, entries)
	}
}

func TestBlockCacheClockOrder(t *testing.T) {
	// Two 40-byte entries fill most of a 100-byte budget. A hit on the
	// first gives it a second chance: the sweep for the third clears its
	// bit and evicts the second, which nothing referenced.
	c := NewBlockCache(100)
	var a, b, d atomic.Pointer[cachedBlock]
	c.admit(&a, testCells("a"), 40)
	c.admit(&b, testCells("b"), 40)
	if c.lookup(&a) == nil {
		t.Fatal("admitted entry not found")
	}
	c.admit(&d, testCells("d"), 40)
	if c.lookup(&b) != nil {
		t.Fatal("the unreferenced entry survived the sweep")
	}
	if a.Load() == nil || d.Load() == nil {
		t.Fatal("the referenced or the new entry was evicted")
	}
	if bytes, entries := ringFootprint(t, c); bytes != 80 || entries != 2 {
		t.Fatalf("%d bytes in %d entries, want 80 in 2", bytes, entries)
	}
}

func TestBlockCacheOversizedEntrySkipped(t *testing.T) {
	c := NewBlockCache(100)
	var big, whole, small atomic.Pointer[cachedBlock]
	c.admit(&big, testCells("big"), 101)
	if big.Load() != nil {
		t.Fatal("an entry larger than the whole budget was cached")
	}
	if bytes, entries := ringFootprint(t, c); bytes != 0 || entries != 0 {
		t.Fatalf("oversized admission changed accounting: %d bytes in %d entries", bytes, entries)
	}
	// The budget is not split: an entry of the whole budget is cached, and
	// evicted by the next admission.
	c.admit(&whole, testCells("whole"), 100)
	if whole.Load() == nil {
		t.Fatal("an entry of exactly the budget was not cached")
	}
	c.admit(&small, testCells("small"), 1)
	if whole.Load() != nil || small.Load() == nil {
		t.Fatal("the full cache did not make room for the next entry")
	}
}

func TestBlockCacheRetiredSegmentAgesOut(t *testing.T) {
	build := func(id uint64, prefix string, cfg segmentConfig) *segment {
		t.Helper()
		var cells []Cell
		for i := 0; i < 200; i++ {
			cells = append(cells, Cell{Row: fmt.Sprintf("%s%04d", prefix, i), Qualifier: "q", Timestamp: 1, Value: []byte("0123456789abcdef")})
		}
		s, err := newSegment(id, cells, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	scan := func(s *segment) (bs blockScanStats) {
		for it := s.iterator(nil, &bs); it.valid(); it.next() {
		}
		return bs
	}
	live := build(2, "live", segmentConfig{blockSize: 256})
	// The budget holds the live segment's blocks exactly, so the retired
	// one's must all go for the live ones to stay.
	live.cfg.cache = NewBlockCache(int64(live.bytes))
	retired := build(1, "old", live.cfg)
	scan(retired)
	scan(retired) // referenced: each survives one sweep
	retiredSlots := retired.slots
	retired = nil // retired: no reader can reach its slots any more

	for round := 0; round < 4; round++ {
		scan(live)
	}
	for i := range retiredSlots {
		if retiredSlots[i].Load() != nil {
			t.Fatalf("retired segment's block %d is still cached", i)
		}
	}
	if bs := scan(live); bs.cacheHits != int64(len(live.blocks)) || bs.decoded != 0 {
		t.Fatalf("live segment after the retired one aged out: %+v, want %d hits", bs, len(live.blocks))
	}
	ringFootprint(t, live.cfg.cache)
}

func TestBlockCacheNilSafe(t *testing.T) {
	var c *BlockCache
	var slot atomic.Pointer[cachedBlock]
	c.admit(&slot, testCells("r"), 10) // must not panic
	if slot.Load() != nil {
		t.Fatal("nil cache admitted an entry")
	}
	slot.Store(&cachedBlock{cells: testCells("r")})
	if c.lookup(&slot) != nil {
		t.Fatal("nil cache served a lookup")
	}
	c.Release()
	if NewBlockCache(0) != nil || NewBlockCache(-5) != nil {
		t.Fatal("non-positive capacity must yield the nil cache")
	}
	// A segment without a cache decodes every load and counts no lookups.
	var cells []Cell
	for i := 0; i < 100; i++ {
		cells = append(cells, Cell{Row: fmt.Sprintf("r%03d", i), Qualifier: "q", Timestamp: 1, Value: []byte("value")})
	}
	s, err := newSegment(1, cells, segmentConfig{blockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		var bs blockScanStats
		n := 0
		for it := s.iterator(nil, &bs); it.valid(); it.next() {
			n++
		}
		if n != len(cells) || bs.decoded != int64(len(s.blocks)) || bs.cacheHits != 0 || bs.cacheMisses != 0 {
			t.Fatalf("pass %d: %d cells, stats %+v over %d blocks", pass, n, bs, len(s.blocks))
		}
	}
}

func TestBlockCacheConcurrent(t *testing.T) {
	// Six 64-byte entries fit among sixteen slots, so lookups, admissions
	// and evictions interleave. Every reader checks the cells it got, then
	// again once other goroutines have had time to evict their entry.
	c := NewBlockCache(6 * 64)
	slots := make([]atomic.Pointer[cachedBlock], 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			type read struct {
				cells []Cell
				want  string
			}
			var held []read
			for i := 0; i < 2000; i++ {
				k := rng.Intn(len(slots))
				want := fmt.Sprintf("s%02d", k)
				cells := c.lookup(&slots[k])
				if cells == nil {
					cells = testCells(want)
					c.admit(&slots[k], cells, 64)
				}
				if cells[0].Row != want {
					t.Errorf("slot %d served %q", k, cells[0].Row)
					return
				}
				if i%100 == 0 {
					held = append(held, read{cells, want})
				}
			}
			for _, r := range held {
				if len(r.cells) != 1 || r.cells[0].Row != r.want {
					t.Errorf("cells held for %s now read %v", r.want, r.cells)
				}
			}
		}(g)
	}
	wg.Wait()
	if bytes, _ := ringFootprint(t, c); bytes > 6*64 {
		t.Fatalf("%d bytes resident over a %d-byte budget", bytes, 6*64)
	}

	// A reader's cells stay valid after its entry is evicted.
	var mine atomic.Pointer[cachedBlock]
	c.admit(&mine, testCells("mine"), 64)
	got := c.lookup(&mine)
	mine.Load().ref.Store(false)
	for i := 0; i < 2*len(slots); i++ {
		c.admit(&slots[i%len(slots)], testCells("other"), 64)
	}
	if mine.Load() != nil {
		t.Fatal("entry not evicted")
	}
	if got[0].Row != "mine" {
		t.Fatalf("evicted entry's cells read %q", got[0].Row)
	}
}

// TestBlockCacheStoreCounters drives the cache through a store: every load
// of a block a cache may hold counts as a hit or a miss, misses are the
// decodes, and kvstore_block_cache_hit_ratio, hits / (hits + misses), is the
// share of loads served without decoding. The registry's hit and miss
// counters move only with reads, so their deltas are this test's own even
// while another test's compaction is still running.
func TestBlockCacheStoreCounters(t *testing.T) {
	opts := DefaultStoreOptions()
	opts.FlushThresholdBytes = 1 << 30
	opts.BlockSizeBytes = 256
	opts.BlockCache = NewBlockCache(1 << 20)
	s, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := s.ApplyBatch([]Cell{{Row: fmt.Sprintf("r%04d", i), Qualifier: "q", Timestamp: 1, Value: []byte("0123456789abcdef")}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := flushNow(s); err != nil {
		t.Fatal(err)
	}
	counted := func(op func()) (hits, misses int64) {
		h, m := mBlockCacheHits.Value(), mBlockCacheMisses.Value()
		op()
		return mBlockCacheHits.Value() - h, mBlockCacheMisses.Value() - m
	}
	ranges := []ScanRange{{Start: "r0000", Stop: "r0200"}}
	for _, warm := range []bool{false, true} {
		// The scan loop of MultiScanCtx, with its stats kept here.
		var bs blockScanStats
		s.mu.RLock()
		its, _ := s.iteratorsLocked(ScanRanges(ranges), nil, &bs, new([]byte))
		for m := newMergeIterator(its); m.valid() && m.cell().Row < ranges[0].Stop; m.next() {
		}
		s.mu.RUnlock()
		if bs.loaded == 0 || bs.cacheHits+bs.cacheMisses != bs.loaded || bs.cacheMisses != bs.decoded ||
			(bs.cacheHits > 0) != warm || (bs.cacheMisses > 0) == warm {
			t.Fatalf("warm=%v: %+v: hits + misses must be the loads, misses the decodes", warm, bs)
		}
		if hits, misses := counted(bs.flush); hits != bs.cacheHits || misses != bs.cacheMisses {
			t.Fatalf("warm=%v: flush published %d hits, %d misses for %+v", warm, hits, misses, bs)
		}
		// The same scan through MultiScanCtx publishes the same counts.
		st := &obs.QueryStats{}
		hits, misses := counted(func() {
			if err := s.MultiScanCtx(obs.WithQueryStats(context.Background(), st), ranges, 0, func(RowResult) bool { return true }); err != nil {
				t.Fatal(err)
			}
		})
		if hits != bs.loaded || misses != 0 || st.Snapshot().BlocksDecoded != 0 {
			t.Fatalf("warm=%v: repeated scan counted %d hits, %d misses, %d decodes; want %d hits",
				warm, hits, misses, st.Snapshot().BlocksDecoded, bs.loaded)
		}
	}
	for _, warm := range []bool{false, true} {
		hits, misses := counted(func() {
			if _, err := readRow(s, "r0250", 0); err != nil {
				t.Fatal(err)
			}
		})
		want := int64(0)
		if warm {
			want = 1
		}
		if hits != want || misses != 1-want {
			t.Fatalf("warm=%v point read: %d hits, %d misses", warm, hits, misses)
		}
	}
}

// TestBlockLoadHitAllocs pins what a hit costs: loading a cached block
// allocates nothing.
func TestBlockLoadHitAllocs(t *testing.T) {
	it := blockLoadIterator(t, NewBlockCache(1<<20))
	if allocs := testing.AllocsPerRun(100, func() { it.bi = 0; it.loadBlock() }); allocs != 0 {
		t.Fatalf("a block-cache hit allocates %.1f times", allocs)
	}
}

// blockLoadIterator is a segment iterator over a 64-block segment whose
// blocks have each been loaded once through cache.
func blockLoadIterator(tb testing.TB, cache *BlockCache) *segmentIterator {
	tb.Helper()
	var cells []Cell
	for i := 0; i < 64*50; i++ {
		cells = append(cells, Cell{Row: fmt.Sprintf("user-%08d", i), Qualifier: "v", Timestamp: 1, Value: []byte("0123456789abcdef0123456789abcdef")})
	}
	s, err := newSegment(1, cells, segmentConfig{blockSize: 50 * 50, cache: cache})
	if err != nil {
		tb.Fatal(err)
	}
	if len(s.blocks) < 32 {
		tb.Fatalf("%d blocks, want at least 32", len(s.blocks))
	}
	it := &segmentIterator{seg: s, bs: &blockScanStats{}}
	for it.bi = range s.blocks {
		it.loadBlock()
	}
	return it
}

// BenchmarkBlockLoad is one block load from a segment iterator: hit serves
// every block from its slot; miss cycles through more blocks than the
// cache holds, so every load decodes, admits and evicts.
func BenchmarkBlockLoad(b *testing.B) {
	for _, tc := range []struct {
		name  string
		bytes int64
	}{{"hit", 1 << 24}, {"miss", 8 << 10}} {
		b.Run(tc.name, func(b *testing.B) {
			it := blockLoadIterator(b, NewBlockCache(tc.bytes))
			n := len(it.seg.blocks)
			*it.bs = blockScanStats{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it.bi = i % n
				it.loadBlock()
			}
			b.StopTimer()
			if hit := tc.name == "hit"; hit && it.bs.decoded != 0 || !hit && it.bs.cacheHits != 0 {
				b.Fatalf("%s: %+v", tc.name, *it.bs)
			}
		})
	}
}
