package kvstore

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// segment is an immutable sorted run of cells — the in-memory analogue of
// an HBase HFile produced by a memtable flush or a compaction. Cells live
// in fixed-target-size blocks (see block.go): prefix-compressed and
// materialized lazily through the block cache, so a segment's steady-state
// footprint is its encoded bytes, not its []Cell slices. Reads prune at two
// levels before decoding anything: the segment's min/max span first, then
// each block's own min/max row.
type segment struct {
	// id orders segments by creation; higher ids are newer. During reads
	// the merge iterator breaks exact-key ties by preferring newer segments.
	id     uint64
	cfg    segmentConfig
	blocks []blockHandle
	// slots holds each block's decoded cells while cfg.cache keeps them
	// resident: one per block, loaded without a lock by reads, filled and
	// emptied by the cache.
	slots []atomic.Pointer[cachedBlock]
	// minRow/maxRow bound the segment's row keys so scans can skip
	// segments disjoint from the requested ranges.
	minRow, maxRow string
	// bytes is the approximate logical cell footprint (cellOverhead per
	// cell, same accounting as the memtable) — the size-tiered compaction
	// policy's input, deliberately independent of the block encoding so
	// tiering does not shift when the encoding changes.
	bytes int
	// encodedBytes is the resident footprint: the encoded block payloads
	// plus per-block metadata.
	encodedBytes int
	numCells     int
}

// segmentConfig carries a store's block-format settings into every segment
// it builds: target block size and the block cache decoded blocks are
// served through.
type segmentConfig struct {
	blockSize int
	cache     *BlockCache
}

// defaultSegmentConfig is used by tests and tools that build segments
// outside a store.
func defaultSegmentConfig() segmentConfig {
	return segmentConfig{blockSize: DefaultBlockSize, cache: defaultBlockCache}
}

// segmentBuilder encodes cells, fed one at a time in compareCells order
// with no two equal, into a blocked segment: the one build behind a flush
// (the frozen memtable's skiplist) and a compaction (the merge of its
// inputs). Blocks cut at row boundaries once the encoded payload reaches
// cfg.blockSize, so one row never spans two blocks (an oversized row yields
// an oversized block instead). Only the block builder's buffer and a copy
// of the previous cell persist between cells; no cell slice is built.
type segmentBuilder struct {
	seg *segment
	b   blockBuilder
	// prev is a copy of the last cell added, for the order check: the cell
	// it came from may be overwritten once the feeder moves on.
	prev Cell
}

func newSegmentBuilder(id uint64, cfg segmentConfig) segmentBuilder {
	if cfg.blockSize <= 0 {
		cfg.blockSize = DefaultBlockSize
	}
	return segmentBuilder{seg: &segment{id: id, cfg: cfg}}
}

// add encodes c, cutting a block first when the current one is full and c
// starts a new row. A cell that does not sort strictly after the previous
// one fails the build.
func (sb *segmentBuilder) add(c *Cell) error {
	s := sb.seg
	if s.numCells > 0 && compareCells(&sb.prev, c) >= 0 {
		return fmt.Errorf("kvstore: segment %d cells out of order or duplicated at index %d", s.id, s.numCells)
	}
	if sb.b.count > 0 && sb.b.encodedSize() >= s.cfg.blockSize && c.Row != sb.b.prevRow {
		s.blocks = append(s.blocks, sb.b.finish())
		sb.b.reset()
	}
	sb.b.add(c)
	sb.prev = *c
	s.numCells++
	s.bytes += len(c.Row) + len(c.Qualifier) + len(c.Value) + cellOverhead
	return nil
}

// finish seals the last block and returns the segment.
func (sb *segmentBuilder) finish() *segment {
	seg := sb.seg
	if sb.b.count > 0 {
		seg.blocks = append(seg.blocks, sb.b.finish())
	}
	seg.slots = make([]atomic.Pointer[cachedBlock], len(seg.blocks))
	if len(seg.blocks) > 0 {
		seg.minRow = seg.blocks[0].minRow
		seg.maxRow = seg.blocks[len(seg.blocks)-1].maxRow
	}
	for i := range seg.blocks {
		seg.encodedBytes += seg.blocks[i].residentBytes()
	}
	return seg
}

func (s *segment) len() int { return s.numCells }

// blockScanStats accumulates one scan's block activity so hot loops touch
// plain ints and flush to the registry, the context's QueryStats and the
// trace span once per scan (the ctxPollInterval discipline).
type blockScanStats struct {
	loaded      int64 // blocks materialized (cache hits + decodes)
	decoded     int64 // blocks decoded on a cache miss
	cacheHits   int64
	cacheMisses int64 // decodes of blocks a cache may admit
	skipped     int64 // blocks pruned by block min/max or segment pruning
}

// flush publishes the accumulated counters.
func (bs *blockScanStats) flush() {
	mBlocksLoaded.Add(bs.loaded)
	mBlockDecodes.Add(bs.decoded)
	mBlockCacheHits.Add(bs.cacheHits)
	mBlockCacheMisses.Add(bs.cacheMisses)
	mBlocksSkipped.Add(bs.skipped)
}

// seekBlocks returns the index of the first block that may hold row: the
// first whose maxRow >= row, searching from index from.
func (s *segment) seekBlocks(from int, row []byte) int {
	return from + sort.Search(len(s.blocks)-from, func(i int) bool {
		return s.blocks[from+i].maxRow >= string(row)
	})
}

// iterator returns a cellIterator positioned at the first row at or after
// start (the beginning when start is empty). Blocks before the start
// position are skipped without decoding and counted into bs.
func (s *segment) iterator(start []byte, bs *blockScanStats) cellIterator {
	it := &segmentIterator{seg: s, bs: bs}
	if len(start) > 0 {
		it.bi = s.seekBlocks(0, start)
		bs.skipped += int64(it.bi)
	}
	if it.bi < len(s.blocks) {
		if it.loadBlock() && len(start) > 0 {
			it.seekInBlock(start)
			it.settle()
		}
	}
	return it
}

// iteratorNoCache returns a full-segment iterator that bypasses the block
// cache — the compaction path, which reads every block exactly once and
// must not evict the read path's working set. It decodes each block into
// the slice the previous block used: nothing outlives a compaction's look
// at a cell but the builder's copy of it. Read-path iterators cannot do
// this, since rowRun hands out runs that alias the decoded block and the
// block cache keeps the slice.
func (s *segment) iteratorNoCache(bs *blockScanStats) cellIterator {
	it := &segmentIterator{seg: s, bs: bs, reuse: true}
	if len(s.blocks) > 0 {
		it.loadBlock()
	}
	return it
}

// segmentIterator walks a blocked segment: a block cursor plus a cell
// cursor inside the current decoded block. The decoded cells come from the
// block's slot when the segment's cache holds them and are decoded (and
// offered to the cache) otherwise. The struct stays within 64 bytes: a
// query allocates one per segment per region.
type segmentIterator struct {
	seg   *segment
	bi    int    // current block index; == len(blocks) when exhausted
	cells []Cell // decoded cells of blocks[bi]
	ci    int    // cursor within cells
	bs    *blockScanStats
	// reuse marks a compaction's iterator (iteratorNoCache): it bypasses
	// the block cache and decodes each block into cells, the slice the
	// previous block used, which nextBlock keeps for it. Such an iterator
	// is read a cell at a time only: rowRun relies on cells being nil once
	// the iterator is exhausted.
	reuse bool
}

func (it *segmentIterator) valid() bool { return it.bi < len(it.seg.blocks) }
func (it *segmentIterator) cell() *Cell { return &it.cells[it.ci] }

func (it *segmentIterator) next() {
	it.ci++
	if it.ci >= len(it.cells) {
		it.nextBlock()
	}
}

// nextBlock moves the cursor to the first cell of the next block.
func (it *segmentIterator) nextBlock() {
	it.bi++
	it.ci = 0
	if !it.reuse {
		it.cells = nil
	}
	if it.bi < len(it.seg.blocks) {
		it.loadBlock()
	}
}

// rowRun returns the cursor's row as a run of the decoded block's cells —
// blocks never split a row, so the run is the whole row — and moves the
// cursor past it in one step; nil once the segment has run out or the row
// is at or past stop (empty = none). *end is where stop falls in the current
// block (stopIndex), kept by the caller across calls: -1 until worked out,
// which rowRun does once per block, so stop is not compared per row.
// Finding the row's end is one string compare per cell, cheap inside the
// row: the decoder hands a row's cells one row string (bar restart points),
// and a string equals itself without a byte read. A cursor left at the
// block's end moves on to the next block, as next does. The run aliases the
// block: callers read it and never write it.
func (it *segmentIterator) rowRun(stop []byte, end *int) []Cell {
	if *end < 0 {
		*end = it.stopIndex(stop)
	}
	i, e := it.ci, *end
	if i >= e {
		return nil
	}
	row := it.cells[i].Row
	j := i + 1
	for j < e && it.cells[j].Row == row {
		j++
	}
	it.ci = j
	run := it.cells[i:j:j]
	if j == len(it.cells) {
		it.nextBlock()
		*end = -1
	}
	return run
}

// stopIndex is the index of the first cell of the current block at or past
// stop, searched from the cursor: len(cells) when the block's rows all sort
// below it, which its maxRow tells without a search.
func (it *segmentIterator) stopIndex(stop []byte) int {
	if len(stop) == 0 || !it.valid() || it.seg.blocks[it.bi].maxRow < string(stop) {
		return len(it.cells)
	}
	return it.ci + sort.Search(len(it.cells)-it.ci, func(i int) bool {
		return it.cells[it.ci+i].Row >= string(stop)
	})
}

// seek repositions the iterator at the first row at or after row.
// Forward-only: a row at or behind the cursor's is a no-op. Seeks that
// leave the current block binary-search the block index, skipping (without
// decoding) every block in between.
func (it *segmentIterator) seek(row []byte) {
	if !it.valid() {
		return
	}
	if string(row) > it.seg.blocks[it.bi].maxRow {
		target := it.seg.seekBlocks(it.bi+1, row)
		it.bs.skipped += int64(target - it.bi - 1)
		it.bi = target
		it.ci = 0
		it.cells = nil
		if it.bi >= len(it.seg.blocks) || !it.loadBlock() {
			return
		}
	}
	it.seekInBlock(row)
	it.settle()
}

// seekInBlock advances the in-block cursor to the first cell of a row at or
// after row (never backwards).
func (it *segmentIterator) seekInBlock(row []byte) {
	it.ci += sort.Search(len(it.cells)-it.ci, func(i int) bool {
		return it.cells[it.ci+i].Row >= string(row)
	})
}

// settle restores the invariant after an in-block seek exhausted the
// current block: the next block's first cell is the successor, because
// blocks cut at row boundaries (its minRow is strictly greater than the
// current block's maxRow, hence greater than any exhausted seek's row).
func (it *segmentIterator) settle() {
	if it.ci < len(it.cells) {
		return
	}
	it.nextBlock()
}

// loadBlock materializes blocks[bi] from its slot, or decodes it and
// offers it to the cache. A decode failure — impossible unless a block was
// corrupted in memory — exhausts the iterator and counts
// kvstore_block_decode_errors_total (the cellIterator interface has no
// error channel; the merge simply sees this source end).
func (it *segmentIterator) loadBlock() bool {
	cache, dst := it.seg.cfg.cache, []Cell(nil)
	if it.reuse {
		cache, dst = nil, it.cells
	}
	cells := cache.lookup(&it.seg.slots[it.bi])
	if cells != nil {
		it.bs.cacheHits++
	} else {
		h := &it.seg.blocks[it.bi]
		var err error
		if cells, err = decodeBlockPayload(dst, h.data, h.count); err != nil {
			mBlockDecodeErrors.Inc()
			it.bi = len(it.seg.blocks)
			it.cells = nil
			return false
		}
		it.bs.decoded++
		if cache != nil {
			it.bs.cacheMisses++
		}
		cache.admit(&it.seg.slots[it.bi], cells, blockLogicalBytes(cells))
	}
	it.bs.loaded++
	it.cells = cells
	it.ci = 0
	return true
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
// sources (memtables and segments). seek repositions the iterator at the
// first cell of a row at or after row and is forward-only: a row behind the
// current position leaves the iterator where it is.
type cellIterator interface {
	valid() bool
	cell() *Cell
	next()
	seek(row []byte)
}

// mergeIterator performs an ordered merge across several cellIterators
// using a loser tournament tree: selecting the next smallest cell costs
// one root-to-leaf replay, O(log k) comparisons, instead of the O(k)
// linear re-scan the seed used — the difference is decisive for
// multi-range coprocessor scans that merge 16+ sources. Sources must be
// given newest-first: when two sources expose cells that compare equal,
// the earlier source wins and later duplicates are skipped. No source may
// hold two equal cells itself (the memtable overwrites in place, flushes
// and compactions deduplicate).
//
// The tournament is played over the live set only: the sources that can
// hold a cell of the current row range [start, stop) — valid, head row
// below stop — kept newest-first so ties still go to the newer source.
// seekRange forms it; inside a range a source can only leave it (it runs
// out or passes stop), never join it. A live set of one is read from that
// source alone: no match, no duplicate check. A multi-range scan mostly
// sees that case, since a friend's visits in one window mostly sit in one
// segment, and reads such a range a row at a time straight from the
// segment's decoded blocks (nextRow, segmentIterator.rowRun).
//
// With several live sources, advancing does not replay the winner's path
// every time: once a source has won twice running the iterator caches the
// runner-up — the best loser on the winner's path, the only source that
// can take over — and keeps the winner for one comparison per cell until
// the runner-up beats it. A runner-up that is exhausted or past stop has
// left the live set, and with it every other source: the set shrinks to
// the winner.
type mergeIterator struct {
	sources []cellIterator
	// live is the newest-first subset of sources the tournament is played
	// over; its backing array is the merge's own.
	live []cellIterator
	// stop is the current range's exclusive bound (empty = none); it
	// aliases the scan's bound buffer, which the range does not rewrite.
	stop []byte
	// tree[1..k-1] hold the losers of each internal tournament match over
	// the k live sources; leaves are implicit (node n >= k is live source
	// n-k). tree[0] is unused.
	tree   []int
	winner int // live index holding the current smallest cell, -1 when none is live
	// runnerUp is the best loser on the winner's leaf-to-root path, or -1
	// while it has not been worked out for the current winner.
	runnerUp int
	// run is the live set's one source when that source is a segment,
	// which nextRow reads in row runs; nil otherwise. runEnd is where stop
	// falls in run's current block, -1 until worked out (rowRun).
	run    *segmentIterator
	runEnd int
}

// newMergeIterator merges the sources as they stand, every valid one live.
func newMergeIterator(newestFirst []cellIterator) *mergeIterator {
	m := &mergeIterator{sources: newestFirst, live: make([]cellIterator, 0, len(newestFirst))}
	m.seekRange(nil, nil)
	return m
}

// seekRange positions the merge at the row range from start (empty for
// where the sources stand) to stop (empty = unbounded): every source whose
// head row is behind start seeks to it — one at or past it is left alone —
// and the tournament is replayed over the sources whose head row is below
// stop. Forward-only, like the source seeks it delegates to, which is what
// lets a multi-range scan reuse one iterator set across ranges.
func (m *mergeIterator) seekRange(start, stop []byte) {
	m.live = m.live[:0]
	for _, src := range m.sources {
		if !src.valid() {
			continue
		}
		head := src.cell()
		if head.Row < string(start) {
			if src.seek(start); !src.valid() {
				continue
			}
			head = src.cell()
		}
		if len(stop) == 0 || head.Row < string(stop) {
			m.live = append(m.live, src)
		}
	}
	m.stop = stop
	m.rebuild()
	m.pickRun()
}

// pickRun sets run from the live set: its one source when that is a
// segment, where the current stop is then located afresh.
func (m *mergeIterator) pickRun() {
	m.run, m.runEnd = nil, -1
	if len(m.live) != 1 {
		return
	}
	if it, ok := m.live[0].(*segmentIterator); ok {
		m.run = it
	}
}

// beats reports whether live source a wins the match against live source
// b: a valid source beats an exhausted one, a smaller cell beats a larger
// one, and ties go to the lower (newer) index.
func (m *mergeIterator) beats(a, b int) bool {
	av, bv := m.live[a].valid(), m.live[b].valid()
	if !av || !bv {
		return av
	}
	if c := compareCells(m.live[a].cell(), m.live[b].cell()); c != 0 {
		return c < 0
	}
	return a < b
}

// rebuild plays the full tournament over the live set bottom-up: each
// internal node records its match's loser and forwards the winner.
func (m *mergeIterator) rebuild() {
	k := len(m.live)
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
		m.tree = make([]int, len(m.sources))
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

// replay re-runs only the matches on live source w's leaf-to-root path
// after w advanced — the O(log k) step that replaces findSmallest.
func (m *mergeIterator) replay(w int) {
	k := len(m.live)
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
// when a source has just won twice running; one that has left the live set
// shrinks the set to w.
func (m *mergeIterator) advanced(w int) {
	k := len(m.live)
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
	if r := m.live[best]; !r.valid() || len(m.stop) > 0 && r.cell().Row >= string(m.stop) {
		m.live[0], m.live = m.live[w], m.live[:1]
		m.winner = 0
		m.pickRun()
		return
	}
	m.runnerUp = best
}

func (m *mergeIterator) valid() bool {
	return m.winner >= 0 && m.live[m.winner].valid()
}

func (m *mergeIterator) cell() *Cell { return m.live[m.winner].cell() }

// nextRow moves the merge past the range's next row and returns that row's
// cells in compareCells order; nil once the range is done. With one segment
// live the cells are a row run of its decoded block (rowRun): no interface
// call or copy per cell, and the range's stop checked once per block.
// Otherwise the tournament gathers them a cell at a time into *buf, which
// is reused and left holding them, so the caller can resolve them in place.
func (m *mergeIterator) nextRow(buf *[]Cell) []Cell {
	if m.run != nil {
		return m.run.rowRun(m.stop, &m.runEnd)
	}
	if !m.valid() {
		return nil
	}
	row := m.cell().Row
	if len(m.stop) > 0 && row >= string(m.stop) {
		return nil
	}
	cells := (*buf)[:0]
	for {
		cells = append(cells, *m.cell())
		m.next()
		if !m.valid() || m.cell().Row != row {
			break
		}
	}
	*buf = cells
	return cells
}

func (m *mergeIterator) next() {
	if len(m.live) == 1 {
		// One source holds no two equal cells: nothing to skip.
		m.live[0].next()
		return
	}
	// Advance every source holding a cell equal to the current one so that
	// shadowed duplicates (older segments rewritten at the same timestamp)
	// are skipped. Equal cells always surface consecutively as winners
	// (ties break by index, and advancing the winner promotes the next
	// equal source). The current cell is copied, not compared in place: a
	// compaction's sources decode each block into the slice the previous
	// block used (iteratorNoCache), so the winner's advance can overwrite
	// it.
	cur := *m.cell()
	for {
		w := m.winner
		m.live[w].next()
		m.advanced(w)
		if !m.valid() || compareCells(m.cell(), &cur) != 0 {
			return
		}
	}
}

// compactSegments merges the given segments (newest first) into one,
// dropping shadowed duplicate keys and keeping tombstones. Inputs are read
// through cache-bypassing iterators: a compaction touches every block
// exactly once and must not wipe the read path's cached working set. The
// merge streams into the segment builder a cell at a time.
func compactSegments(id uint64, newestFirst []*segment, cfg segmentConfig) (*segment, error) {
	var bs blockScanStats
	defer bs.flush()
	its := make([]cellIterator, len(newestFirst))
	for i, s := range newestFirst {
		its[i] = s.iteratorNoCache(&bs)
	}
	b := newSegmentBuilder(id, cfg)
	for m := newMergeIterator(its); m.valid(); m.next() {
		if err := b.add(m.cell()); err != nil {
			return nil, err
		}
	}
	return b.finish(), nil
}
