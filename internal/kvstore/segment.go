package kvstore

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// segment is an immutable sorted run of cells — the in-memory analogue of
// an HBase HFile produced by a memtable flush or a compaction. Cells live
// in fixed-target-size blocks (see block.go): prefix-compressed, optionally
// codec-compressed, and materialized lazily through the block cache, so a
// segment's steady-state footprint is its encoded bytes, not its []Cell
// slices. Reads consult two pruning levels before decoding anything: the
// segment-level Bloom filter and min/max span first, then each block's own
// min/max row and Bloom filter.
type segment struct {
	// id orders segments by creation; higher ids are newer. During reads
	// the merge iterator breaks exact-key ties by preferring newer segments.
	id uint64
	// cacheID namespaces this segment's blocks in the block cache. Unlike
	// id (which restarts per store), cacheIDs come from a process-global
	// counter, so an entry cached for a retired segment can never be
	// revived by a younger segment reusing its id.
	cacheID uint64
	cfg     segmentConfig
	blocks  []blockHandle
	// bloom indexes the segment's row keys — the first-level filter point
	// reads consult before the per-block filters.
	bloom *bloomFilter
	// minRow/maxRow bound the segment's row keys so range scans can skip
	// segments disjoint from the requested ranges — the range-read analogue
	// of the point-read Bloom filter.
	minRow, maxRow string
	// bytes is the approximate logical cell footprint (cellOverhead per
	// cell, same accounting as the memtable) — the size-tiered compaction
	// policy's input, deliberately independent of compression so tiering
	// does not shift when the codec changes.
	bytes int
	// encodedBytes is the resident footprint: the encoded (possibly
	// compressed) block payloads plus per-block metadata.
	encodedBytes int
	numCells     int
}

// segmentConfig carries a store's block-format settings into every segment
// it builds: target block size, compression codec and the block cache
// decoded blocks are served through.
type segmentConfig struct {
	blockSize int
	codec     blockCodec
	cache     *BlockCache
}

// defaultSegmentConfig is used by tests and tools that build segments
// outside a store.
func defaultSegmentConfig() segmentConfig {
	return segmentConfig{blockSize: DefaultBlockSize, codec: codecNone, cache: defaultBlockCache}
}

// nextSegmentCacheID allocates process-globally-unique block-cache
// namespaces (see segment.cacheID).
var nextSegmentCacheID atomic.Uint64

// newSegment encodes a cell slice — which must already be sorted by
// compareCells — into a blocked segment. Blocks cut at row boundaries once
// the encoded payload reaches cfg.blockSize, so one row never spans two
// blocks (an oversized row yields an oversized block instead).
func newSegment(id uint64, cells []Cell, cfg segmentConfig) (*segment, error) {
	for i := 1; i < len(cells); i++ {
		if compareCells(&cells[i-1], &cells[i]) > 0 {
			return nil, fmt.Errorf("kvstore: segment %d cells out of order at index %d", id, i)
		}
	}
	if cfg.blockSize <= 0 {
		cfg.blockSize = DefaultBlockSize
	}
	seg := &segment{id: id, cacheID: nextSegmentCacheID.Add(1), cfg: cfg, numCells: len(cells)}
	distinctRows := 0
	for i := range cells {
		seg.bytes += len(cells[i].Row) + len(cells[i].Qualifier) + len(cells[i].Value) + cellOverhead
		if i == 0 || cells[i].Row != cells[i-1].Row {
			distinctRows++
		}
	}
	var b blockBuilder
	for i := range cells {
		if b.count > 0 && b.encodedSize() >= cfg.blockSize && cells[i].Row != b.prevRow {
			h, err := b.finish(cfg.codec)
			if err != nil {
				return nil, err
			}
			seg.blocks = append(seg.blocks, h)
			b.reset()
		}
		b.add(&cells[i])
	}
	if b.count > 0 {
		h, err := b.finish(cfg.codec)
		if err != nil {
			return nil, err
		}
		seg.blocks = append(seg.blocks, h)
	}
	if len(seg.blocks) > 0 {
		seg.minRow = seg.blocks[0].minRow
		seg.maxRow = seg.blocks[len(seg.blocks)-1].maxRow
	}
	for i := range seg.blocks {
		seg.encodedBytes += seg.blocks[i].residentBytes()
	}
	seg.bloom = newBloomFilter(distinctRows)
	for i := range cells {
		if i == 0 || cells[i].Row != cells[i-1].Row {
			seg.bloom.add(cells[i].Row)
		}
	}
	return seg, nil
}

// mayContainRow consults the segment's first-level Bloom filter. An empty
// segment (a compaction that dropped everything) contains nothing.
func (s *segment) mayContainRow(row string) bool {
	if s.numCells == 0 {
		return false
	}
	return s.bloom.mayContain(row)
}

func (s *segment) len() int { return s.numCells }

// blockScanStats accumulates one scan's block activity so hot loops touch
// plain ints and flush to the registry, the context's QueryStats and the
// trace span once per scan (the ctxPollInterval discipline).
type blockScanStats struct {
	loaded    int64 // blocks materialized (cache hits + decodes)
	decoded   int64 // blocks decoded on a cache miss
	cacheHits int64
	skipped   int64 // blocks pruned by min/max, block Bloom or segment pruning
}

// flush publishes the accumulated counters.
func (bs *blockScanStats) flush() {
	mBlocksLoaded.Add(bs.loaded)
	mBlockDecodes.Add(bs.decoded)
	mBlocksSkipped.Add(bs.skipped)
}

// seekBlocks returns the index of the first block that may hold row: the
// first whose maxRow >= row, searching from index from.
func (s *segment) seekBlocks(from int, row string) int {
	return from + sort.Search(len(s.blocks)-from, func(i int) bool {
		return s.blocks[from+i].maxRow >= row
	})
}

// iterator returns a cellIterator positioned at the first cell >= start
// (or the beginning when start is nil). Blocks before the start position
// are skipped without decoding and counted into bs (nil bs falls back to
// the global counters).
func (s *segment) iterator(start *Cell, bs *blockScanStats) cellIterator {
	it := &segmentIterator{seg: s, bs: bs}
	if start != nil {
		it.bi = s.seekBlocks(0, start.Row)
		it.countSkipped(int64(it.bi))
	}
	if it.bi < len(s.blocks) {
		if it.loadBlock() && start != nil {
			it.seekInBlock(start)
			it.settle()
		}
	}
	return it
}

// iteratorNoCache returns a full-segment iterator that bypasses the block
// cache — the compaction path, which reads every block exactly once and
// must not evict the read path's working set.
func (s *segment) iteratorNoCache() cellIterator {
	it := &segmentIterator{seg: s, noCache: true}
	if len(s.blocks) > 0 {
		it.loadBlock()
	}
	return it
}

// pointIterator is iterator specialized for single-row reads: it locates
// the one block that can hold the row (blocks never split a row) and
// consults that block's Bloom filter before decoding. It returns nil when
// the row cannot be present, counting the pruned block into bs.
func (s *segment) pointIterator(row string, start *Cell, bs *blockScanStats) cellIterator {
	bi := s.seekBlocks(0, row)
	if bi >= len(s.blocks) || s.blocks[bi].minRow > row {
		return nil
	}
	if !s.blocks[bi].bloom.mayContain(row) {
		mBlockBloomMisses.Inc()
		if bs != nil {
			bs.skipped++
		} else {
			mBlocksSkipped.Add(1)
		}
		return nil
	}
	mBlockBloomHits.Inc()
	it := &segmentIterator{seg: s, bi: bi, bs: bs}
	if it.loadBlock() {
		it.seekInBlock(start)
		it.settle()
	}
	return it
}

// segmentIterator walks a blocked segment: a block cursor plus a cell
// cursor inside the current decoded block. The decoded cells come from the
// block cache when resident and are decoded (and cached) otherwise.
type segmentIterator struct {
	seg     *segment
	bi      int    // current block index; == len(blocks) when exhausted
	cells   []Cell // decoded cells of blocks[bi]
	ci      int    // cursor within cells
	bs      *blockScanStats
	noCache bool
}

func (it *segmentIterator) valid() bool { return it.bi < len(it.seg.blocks) }
func (it *segmentIterator) cell() *Cell { return &it.cells[it.ci] }

func (it *segmentIterator) next() {
	it.ci++
	if it.ci >= len(it.cells) {
		it.bi++
		it.ci = 0
		it.cells = nil
		if it.bi < len(it.seg.blocks) {
			it.loadBlock()
		}
	}
}

// seek repositions the iterator at the first cell >= probe. Forward-only:
// a probe at or behind the cursor is a no-op. Seeks that leave the current
// block binary-search the block index, skipping (without decoding) every
// block in between.
func (it *segmentIterator) seek(probe *Cell) {
	if !it.valid() {
		return
	}
	if probe.Row > it.seg.blocks[it.bi].maxRow {
		target := it.seg.seekBlocks(it.bi+1, probe.Row)
		it.countSkipped(int64(target - it.bi - 1))
		it.bi = target
		it.ci = 0
		it.cells = nil
		if it.bi >= len(it.seg.blocks) || !it.loadBlock() {
			return
		}
	}
	it.seekInBlock(probe)
	it.settle()
}

// seekInBlock advances the in-block cursor to the first cell >= probe
// (never backwards). A nil probe is a no-op.
func (it *segmentIterator) seekInBlock(probe *Cell) {
	if probe == nil {
		return
	}
	it.ci += sort.Search(len(it.cells)-it.ci, func(i int) bool {
		return compareCells(&it.cells[it.ci+i], probe) >= 0
	})
}

// settle restores the invariant after an in-block seek exhausted the
// current block: the next block's first cell is the successor, because
// blocks cut at row boundaries (its minRow is strictly greater than the
// current block's maxRow, hence greater than any exhausted probe's row).
func (it *segmentIterator) settle() {
	if it.ci < len(it.cells) {
		return
	}
	it.bi++
	it.ci = 0
	it.cells = nil
	if it.bi < len(it.seg.blocks) {
		it.loadBlock()
	}
}

// loadBlock materializes blocks[bi] through the cache. A decode failure —
// impossible unless a block was corrupted in memory — exhausts the
// iterator and counts kvstore_block_decode_errors_total (the cellIterator
// interface has no error channel; the merge simply sees this source end).
func (it *segmentIterator) loadBlock() bool {
	h := &it.seg.blocks[it.bi]
	key := blockKey{seg: it.seg.cacheID, idx: it.bi}
	var cells []Cell
	cacheHit := false
	if !it.noCache {
		if c := it.seg.cfg.cache.get(key); c != nil {
			cells, cacheHit = c, true
		}
	}
	if cells == nil {
		var err error
		cells, err = decodeBlockHandle(h)
		if err != nil {
			mBlockDecodeErrors.Inc()
			it.bi = len(it.seg.blocks)
			it.cells = nil
			return false
		}
		if !it.noCache {
			it.seg.cfg.cache.put(key, cells, blockLogicalBytes(cells))
		}
	}
	it.cells = cells
	it.ci = 0
	if it.bs != nil {
		it.bs.loaded++
		if cacheHit {
			it.bs.cacheHits++
		} else {
			it.bs.decoded++
		}
	} else {
		mBlocksLoaded.Inc()
		if !cacheHit {
			mBlockDecodes.Inc()
		}
	}
	return true
}

// countSkipped records blocks pruned without decoding.
func (it *segmentIterator) countSkipped(n int64) {
	if n <= 0 {
		return
	}
	if it.bs != nil {
		it.bs.skipped += n
	} else {
		mBlocksSkipped.Add(n)
	}
}

// blockLogicalBytes is the cache charge of one decoded block: the logical
// cell footprint the cells would cost as a flat slice.
func blockLogicalBytes(cells []Cell) int64 {
	var n int64
	for i := range cells {
		n += int64(len(cells[i].Row)+len(cells[i].Qualifier)+len(cells[i].Value)) + cellOverhead
	}
	return n
}

// cellIterator is the common forward-iteration interface over sorted cell
// sources (memtable, segments, merged views). seek repositions the iterator
// at the first cell >= probe and is forward-only: probes behind the current
// position leave the iterator where it is.
type cellIterator interface {
	valid() bool
	cell() *Cell
	next()
	seek(probe *Cell)
}

// mergeIterator performs an ordered merge across several cellIterators
// using a loser tournament tree: selecting the next smallest cell costs
// one root-to-leaf replay, O(log k) comparisons, instead of the O(k)
// linear re-scan the seed used — the difference is decisive for
// multi-range coprocessor scans that merge 16+ sources. Sources must be
// given newest-first: when two sources expose cells that compare equal,
// the earlier source wins and later duplicates are skipped.
//
// Time-ordered segments hand a range scan long runs of cells from one
// source (a friend's visits in one window mostly sit in one segment), so
// advancing does not replay the winner's path every time: once a source
// has won twice running the iterator caches the runner-up — the best loser
// on the winner's path, the only source that can take over — and keeps the
// winner for one comparison per cell until the runner-up beats it.
type mergeIterator struct {
	sources []cellIterator
	// tree[1..k-1] hold the losers of each internal tournament match;
	// leaves are implicit (node n >= k is source n-k). tree[0] is unused.
	tree   []int
	winner int // source index holding the current smallest cell, -1 when k == 0
	// runnerUp is the best loser on the winner's leaf-to-root path, or -1
	// while it has not been worked out for the current winner.
	runnerUp int
}

func newMergeIterator(newestFirst []cellIterator) *mergeIterator {
	m := &mergeIterator{sources: newestFirst}
	m.rebuild()
	return m
}

// beats reports whether source a wins the match against source b: a valid
// source beats an exhausted one, a smaller cell beats a larger one, and
// ties go to the lower (newer) source index.
func (m *mergeIterator) beats(a, b int) bool {
	av, bv := m.sources[a].valid(), m.sources[b].valid()
	if !av || !bv {
		return av
	}
	if c := compareCells(m.sources[a].cell(), m.sources[b].cell()); c != 0 {
		return c < 0
	}
	return a < b
}

// rebuild plays the full tournament bottom-up: each internal node records
// its match's loser and forwards the winner. Used at construction and
// after a seek moves every source at once.
func (m *mergeIterator) rebuild() {
	k := len(m.sources)
	m.runnerUp = -1
	switch k {
	case 0:
		m.winner = -1
		return
	case 1:
		m.winner = 0
		return
	}
	if m.tree == nil {
		m.tree = make([]int, k)
	}
	var play func(n int) int
	play = func(n int) int {
		if n >= k {
			return n - k
		}
		a, b := play(2*n), play(2*n+1)
		if m.beats(a, b) {
			m.tree[n] = b
			return a
		}
		m.tree[n] = a
		return b
	}
	m.winner = play(1)
}

// replay re-runs only the matches on source w's leaf-to-root path after w
// advanced — the O(log k) step that replaces findSmallest.
func (m *mergeIterator) replay(w int) {
	k := len(m.sources)
	for n := (w + k) / 2; n >= 1; n /= 2 {
		if m.beats(m.tree[n], w) {
			w, m.tree[n] = m.tree[n], w
		}
	}
	m.winner = w
}

// advanced restores the tournament after the winner w moved to its next
// cell. While w still beats the cached runner-up it beats every loser on
// its path, so the tree stands as it is; otherwise the path is replayed.
// The runner-up costs as many matches as a replay, so it is worked out only
// when a source has just won twice running.
func (m *mergeIterator) advanced(w int) {
	k := len(m.sources)
	if k <= 1 {
		return
	}
	if m.runnerUp >= 0 {
		if m.beats(w, m.runnerUp) {
			return
		}
		m.runnerUp = -1
		m.replay(w)
		return
	}
	m.replay(w)
	if m.winner != w {
		return
	}
	best := -1
	for n := (w + k) / 2; n >= 1; n /= 2 {
		if best < 0 || m.beats(m.tree[n], best) {
			best = m.tree[n]
		}
	}
	m.runnerUp = best
}

func (m *mergeIterator) valid() bool {
	return m.winner >= 0 && m.sources[m.winner].valid()
}

func (m *mergeIterator) cell() *Cell { return m.sources[m.winner].cell() }

// seek advances every source to its first cell >= probe and replays the
// whole tournament. Forward-only, like the source seeks it delegates to:
// the merged view never moves backwards, which is what lets a multi-range
// scan reuse one iterator set across ranges instead of rebuilding it per
// range.
func (m *mergeIterator) seek(probe *Cell) {
	for _, src := range m.sources {
		if src.valid() {
			src.seek(probe)
		}
	}
	m.rebuild()
}

func (m *mergeIterator) next() {
	// Advance every source holding a cell equal to the current one so that
	// shadowed duplicates (older segments rewritten at the same timestamp)
	// are skipped. Equal cells always surface consecutively as winners
	// (ties break by index, and advancing the winner promotes the next
	// equal source). The current cell is compared in place, not copied: a
	// source's cells live in a decoded block or a memtable node, neither of
	// which moves while the iterator's reader holds the store lock.
	cur := m.cell()
	for {
		w := m.winner
		m.sources[w].next()
		m.advanced(w)
		if !m.valid() || compareCells(m.cell(), cur) != 0 {
			return
		}
	}
}

// compactSegments merges the given segments (newest first) into one,
// dropping shadowed duplicate keys and keeping tombstones. Inputs are read
// through cache-bypassing iterators: a compaction touches every block
// exactly once and must not wipe the read path's cached working set.
func compactSegments(id uint64, newestFirst []*segment, cfg segmentConfig) (*segment, error) {
	its := make([]cellIterator, len(newestFirst))
	for i, s := range newestFirst {
		its[i] = s.iteratorNoCache()
	}
	merged := newMergeIterator(its)
	var out []Cell
	for merged.valid() {
		out = append(out, *merged.cell())
		merged.next()
	}
	return newSegment(id, out, cfg)
}
