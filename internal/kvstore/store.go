package kvstore

import (
	"fmt"
	"sync"
)

// DefaultMaxImmutableMemtables is the rotated-memtable backlog a store
// tolerates before writers stall waiting for the background flusher.
const DefaultMaxImmutableMemtables = 2

// StoreOptions tune a single store (one region's backing storage).
type StoreOptions struct {
	// FlushThresholdBytes rotates the memtable into the flush backlog once
	// its approximate footprint exceeds this many bytes.
	FlushThresholdBytes int
	// CompactionTrigger is the run length of adjacent similar-sized segments
	// that makes a background compaction eligible.
	CompactionTrigger int
	// Seed pins the memtable skiplist randomness for determinism.
	Seed int64
	// MaxImmutableMemtables caps the rotated-but-unflushed memtable backlog;
	// 0 means DefaultMaxImmutableMemtables. Writers hitting the cap stall
	// until the flusher drains (see Stats.WriteStalls and WritePressure).
	MaxImmutableMemtables int
	// CompactionRate throttles background compaction bandwidth; the limiter
	// may be shared across stores (all regions of a table). Nil = unlimited.
	CompactionRate *RateLimiter
	// WALSyncPolicy selects the group-commit durability of a durable table's
	// log (see OpenDurableTable); region stores themselves ignore it.
	WALSyncPolicy SyncPolicy
	// BlockSizeBytes is the target encoded size of one segment block;
	// 0 means DefaultBlockSize. Blocks cut only at row boundaries, so one
	// oversized row yields one oversized block.
	BlockSizeBytes int
	// BlockCompression selects the per-block codec of this store's
	// segments; the zero value means BlockNone.
	BlockCompression BlockCompression
	// BlockCache serves decoded blocks to this store's reads; nil means
	// the process-wide shared default cache. The cache may (and usually
	// should) be shared across stores.
	BlockCache *BlockCache
}

// DefaultStoreOptions returns sensible defaults for simulation workloads.
func DefaultStoreOptions() StoreOptions {
	return StoreOptions{
		FlushThresholdBytes:   8 << 20,
		CompactionTrigger:     6,
		Seed:                  1,
		MaxImmutableMemtables: DefaultMaxImmutableMemtables,
	}
}

// Store is one LSM tree: a mutable memtable over rotated immutable
// memtables awaiting flush over a stack of immutable sorted segments.
// Memtable flushes and segment compactions run on background goroutines
// (single-flight each), so writers pay neither; a full flush backlog stalls
// writers until the flusher catches up. Safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	cond *sync.Cond // signals flush/compaction progress to stalled writers
	opts StoreOptions
	mem  *memtable
	imm  []*memtable // rotated, flush-pending memtables, oldest first
	// segments is newest-last; flushers append, only the single-flight
	// background compactor removes entries.
	segments   []*segment
	nextSeg    uint64
	rotations  uint64
	flushing   bool // background flusher running (single-flight)
	compacting bool // background compactor running (single-flight)
	// flushErr is the sticky last maintenance failure; WaitMaintenance and
	// WritePressure surface it, the next successful flush clears it.
	flushErr error
	// flushHook, when set (tests only), runs before each memtable flush and
	// can inject a failure.
	flushHook func(*memtable) error
	// segCfg is the resolved block format handed to every segment this
	// store builds; immutable after NewStore.
	segCfg segmentConfig
	// gauges holds this store's contributions to storeGauges; retired
	// stores contribute nothing. gaugeMu guards both and is a leaf lock:
	// release must not wait for s.mu, which a scan holds read-locked for its
	// whole run, across the split that retires its store.
	gaugeMu   sync.Mutex
	gauges    [3]int64
	retired   bool
	puts      uint64
	flushes   uint64
	bgCompact uint64
	stalls    uint64
}

// NewStore creates an empty store.
func NewStore(opts StoreOptions) (*Store, error) {
	if opts.FlushThresholdBytes <= 0 {
		return nil, fmt.Errorf("kvstore: flush threshold must be positive, got %d", opts.FlushThresholdBytes)
	}
	if opts.CompactionTrigger < 2 {
		return nil, fmt.Errorf("kvstore: compaction trigger must be >= 2, got %d", opts.CompactionTrigger)
	}
	if opts.MaxImmutableMemtables < 0 {
		return nil, fmt.Errorf("kvstore: max immutable memtables must be >= 0, got %d", opts.MaxImmutableMemtables)
	}
	if opts.MaxImmutableMemtables == 0 {
		opts.MaxImmutableMemtables = DefaultMaxImmutableMemtables
	}
	if opts.BlockSizeBytes < 0 {
		return nil, fmt.Errorf("kvstore: block size must be >= 0, got %d", opts.BlockSizeBytes)
	}
	codec, err := codecFor(opts.BlockCompression)
	if err != nil {
		return nil, err
	}
	blockSize := opts.BlockSizeBytes
	if blockSize == 0 {
		blockSize = DefaultBlockSize
	}
	cache := opts.BlockCache
	if cache == nil {
		cache = defaultBlockCache
	}
	s := &Store{opts: opts, mem: newMemtable(opts.Seed)}
	s.segCfg = segmentConfig{blockSize: blockSize, codec: codec, cache: cache}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// ApplyBatch writes pre-built cells, puts and tombstones alike, in order
// under one lock acquisition — the store's one write routine (the table's
// write path, log replay, replica shipping and region splits all end here).
// Row keys are validated before anything is written; a write stall mid-batch
// blocks until the flusher drains, and fails — with the cells before it
// written — only when the flusher cannot make progress. A store keeps no log
// of its own: durability is the owning table's (see OpenDurableTable).
func (s *Store) ApplyBatch(cells []Cell) error {
	for i := range cells {
		if cells[i].Row == "" {
			return fmt.Errorf("kvstore: empty row key in batch cell %d", i)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range cells {
		if err := s.waitWriteRoomLocked(); err != nil {
			return err
		}
		s.addCellLocked(cells[i])
	}
	return nil
}

// waitWriteRoomLocked blocks while the memtable is full and the rotation
// backlog is at its cap — the write-stall backpressure point. It fails only
// when the flusher cannot make progress (a sticky flush error). Caller holds
// s.mu; the wait releases it so the flusher can drain.
func (s *Store) waitWriteRoomLocked() error {
	for s.mem.sizeBytes() >= s.opts.FlushThresholdBytes && len(s.imm) >= s.opts.MaxImmutableMemtables {
		if s.flushErr != nil && !s.flushing {
			return fmt.Errorf("kvstore: write stalled on failed flush: %w", s.flushErr)
		}
		s.startFlusherLocked()
		s.stalls++
		mWriteStalls.Inc()
		s.cond.Wait()
	}
	return nil
}

// addCellLocked applies one cell to the memtable and rotates it into the
// flush backlog when full. Caller holds s.mu with write room available.
func (s *Store) addCellLocked(c Cell) {
	s.mem.add(c)
	s.puts++
	mBytesIngested.Add(int64(len(c.Row)+len(c.Qualifier)+len(c.Value)) + cellOverhead)
	if s.mem.sizeBytes() >= s.opts.FlushThresholdBytes && len(s.imm) < s.opts.MaxImmutableMemtables {
		s.rotateLocked()
	}
}

// rotateLocked moves the full memtable into the immutable backlog and
// ensures the background flusher is draining it. Caller holds s.mu.
func (s *Store) rotateLocked() {
	s.imm = append(s.imm, s.mem)
	s.rotations++
	s.mem = newMemtable(s.opts.Seed + int64(s.rotations))
	s.startFlusherLocked()
}

// startFlusherLocked launches the single-flight background flusher when
// there is backlog and none is running. Caller holds s.mu.
func (s *Store) startFlusherLocked() {
	if s.flushing || len(s.imm) == 0 {
		return
	}
	s.flushing = true
	go s.flushLoop()
}

// flushLoop drains the immutable-memtable backlog, building each segment
// off the store lock, then exits (re-launched on the next rotation). On
// failure the backlog entry is kept and the error parks in flushErr for
// WaitMaintenance and WritePressure to surface.
func (s *Store) flushLoop() {
	s.mu.Lock()
	for len(s.imm) > 0 {
		m := s.imm[0]
		id := s.nextSeg
		s.nextSeg++
		hook := s.flushHook
		s.mu.Unlock()
		seg, err := buildSegmentFrom(id, m, hook, s.segCfg)
		s.mu.Lock()
		if err != nil {
			s.flushErr = err
			break
		}
		s.flushErr = nil
		s.imm = s.imm[1:]
		s.installSegmentLocked(seg)
		s.cond.Broadcast()
	}
	s.flushing = false
	s.maybeCompactLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// buildSegmentFrom turns one frozen memtable into a segment; the hook is the
// tests' flush-failure injection point.
func buildSegmentFrom(id uint64, m *memtable, hook func(*memtable) error, cfg segmentConfig) (*segment, error) {
	if hook != nil {
		if err := hook(m); err != nil {
			return nil, err
		}
	}
	return newSegment(id, m.snapshot(), cfg)
}

// installSegmentLocked appends a flushed segment and updates the flush
// accounting and maintenance gauges. Caller holds s.mu.
func (s *Store) installSegmentLocked(seg *segment) {
	s.segments = append(s.segments, seg)
	s.flushes++
	mFlushes.Inc()
	mBytesFlushed.Add(int64(seg.bytes))
	s.updateGaugesLocked()
	updateWriteAmp()
}

// updateGaugesLocked refreshes the store's contributions to the global
// segment-bytes and compaction-debt gauges. Caller holds s.mu.
func (s *Store) updateGaugesLocked() {
	var logical, resident int64
	for _, seg := range s.segments {
		logical += int64(seg.bytes)
		resident += int64(seg.encodedBytes)
	}
	s.setGauges([3]int64{logical, resident, s.compactionDebtLocked()}, false)
}

// setGauges moves storeGauges by the change in the store's contributions
// and, with retire, retires the store. A retired store's gauges stay put.
func (s *Store) setGauges(v [3]int64, retire bool) {
	s.gaugeMu.Lock()
	defer s.gaugeMu.Unlock()
	if s.retired {
		return
	}
	for i, g := range storeGauges {
		g.Add(v[i] - s.gauges[i])
	}
	s.gauges, s.retired = v, retire
}

// release takes the store's contributions off the gauges and retires it, so
// a flush or compaction that finishes later is not counted. A split, a
// failover rebuild and Table.Close call it on each store they discard;
// frozen views may still read the store. Idempotent.
func (s *Store) release() { s.setGauges([3]int64{}, true) }

// WaitMaintenance blocks until the flush backlog is drained and background
// flush/compaction work is idle, returning the sticky maintenance error if
// the flusher could not make progress. Benchmarks and tests use it to reach
// a quiescent state after an ingest burst.
func (s *Store) WaitMaintenance() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.flushing || s.compacting || (len(s.imm) > 0 && s.flushErr == nil) {
		s.startFlusherLocked()
		s.maybeCompactLocked()
		s.cond.Wait()
	}
	return s.flushErr
}

// WritePressure gauges how close the store is to a write stall, from 0
// (idle) to 1 (stalled: memtable full with a full rotation backlog, or the
// flusher is failing). The admission layer rejects writes at 1 so clients
// see backpressure instead of blocking.
func (s *Store) WritePressure() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.flushErr != nil {
		return 1
	}
	backlog := len(s.imm)
	if s.mem.sizeBytes() >= s.opts.FlushThresholdBytes {
		backlog++
	}
	return float64(backlog) / float64(s.opts.MaxImmutableMemtables+1)
}

// iteratorsLocked returns the newest-first iterator stack (memtable, then
// rotated memtables newest to oldest, then segments newest to oldest),
// positioned at start. Segment block activity is counted into bs.
func (s *Store) iteratorsLocked(start *Cell, bs *blockScanStats) []cellIterator {
	its := make([]cellIterator, 0, len(s.segments)+len(s.imm)+1)
	its = append(its, s.mem.iterator(start))
	for i := len(s.imm) - 1; i >= 0; i-- {
		its = append(its, s.imm[i].iterator(start))
	}
	for i := len(s.segments) - 1; i >= 0; i-- {
		its = append(its, s.segments[i].iterator(start, bs))
	}
	return its
}

// Get returns the newest live version of every qualifier of the row.
func (s *Store) Get(row string) (RowResult, error) {
	return s.GetAt(row, int64(1)<<62)
}

// GetAt reads the row as of the given timestamp: only versions with
// Timestamp <= asOf are visible. This gives repositories snapshot reads.
// Segments whose Bloom filter excludes the row are skipped entirely.
func (s *Store) GetAt(row string, asOf int64) (RowResult, error) {
	if row == "" {
		return RowResult{}, fmt.Errorf("kvstore: empty row key")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	start := &Cell{Row: row, Qualifier: "", Timestamp: int64(1) << 62, Tombstone: true}
	var bs blockScanStats
	defer bs.flush()
	merged := newMergeIterator(s.pointIteratorsLocked(row, start, &bs))
	res := RowResult{Row: row}
	resolveRowVersions(merged, row, asOf, &res)
	return res, nil
}

// pointIteratorsLocked is iteratorsLocked specialized for point reads: it
// consults each segment's Bloom filter (first level) and then the target
// block's Bloom filter (second level, inside pointIterator), skipping
// segments and blocks that cannot contain the row.
func (s *Store) pointIteratorsLocked(row string, start *Cell, bs *blockScanStats) []cellIterator {
	its := make([]cellIterator, 0, len(s.segments)+len(s.imm)+1)
	its = append(its, s.mem.iterator(start))
	for i := len(s.imm) - 1; i >= 0; i-- {
		its = append(its, s.imm[i].iterator(start))
	}
	for i := len(s.segments) - 1; i >= 0; i-- {
		if !s.segments[i].mayContainRow(row) {
			continue
		}
		if it := s.segments[i].pointIterator(row, start, bs); it != nil {
			its = append(its, it)
		}
	}
	return its
}

// resolveRowVersions walks merged cells of a single row and appends the
// newest live version of each qualifier (as of asOf) to res.
func resolveRowVersions(merged *mergeIterator, row string, asOf int64, res *RowResult) {
	for merged.valid() {
		c := merged.cell()
		if c.Row != row {
			return
		}
		qual := c.Qualifier
		// The first visible (Timestamp <= asOf) version decides this
		// qualifier's fate: a put surfaces, a tombstone hides it; every
		// older version is consumed and discarded.
		decided := false
		for merged.valid() {
			cc := merged.cell()
			if cc.Row != row || cc.Qualifier != qual {
				break
			}
			if !decided && cc.Timestamp <= asOf {
				if !cc.Tombstone {
					res.Cells = append(res.Cells, *cc)
				}
				decided = true
			}
			merged.next()
		}
	}
}

// ScanOptions select a key range and visibility bound for Scan.
type ScanOptions struct {
	// StartRow is the inclusive lower bound ("" = from the beginning).
	StartRow string
	// StopRow is the exclusive upper bound ("" = to the end).
	StopRow string
	// AsOf hides versions newer than this timestamp (0 = no bound).
	AsOf int64
	// Limit stops the scan after this many rows (0 = unlimited).
	Limit int
}

// oneRange puts the options into MultiScanCtx's terms: the single range to
// scan — none when the bounds are empty or inverted, which selects no row —
// and fn wrapped to stop the scan after Limit delivered rows.
func (o ScanOptions) oneRange(fn func(RowResult) bool) ([]ScanRange, func(RowResult) bool) {
	var ranges []ScanRange
	if o.StopRow == "" || o.StopRow > o.StartRow {
		ranges = []ScanRange{{Start: o.StartRow, Stop: o.StopRow}}
	}
	if o.Limit <= 0 || fn == nil {
		return ranges, fn
	}
	remaining := o.Limit
	return ranges, func(res RowResult) bool {
		remaining--
		return fn(res) && remaining > 0
	}
}

// Stats reports store counters for tests and observability.
// BackgroundCompactions counts the size-tiered merges (they keep
// tombstones, so their read-visible effect is nil).
type Stats struct {
	Puts, Flushes         uint64
	BackgroundCompactions uint64
	WriteStalls           uint64
	Segments              int
	SegmentBlocks         int
	MemtableCells         int
	ImmutableMemtables    int
	CompactionDebtBytes   int64
	// SegmentLogicalBytes is the flat-slice cell footprint the installed
	// segments represent; SegmentResidentBytes is what they actually hold
	// (encoded, possibly compressed, blocks). Their ratio is the resident
	// reduction the blocked format buys.
	SegmentLogicalBytes  int64
	SegmentResidentBytes int64
}

// Stats returns a snapshot of the store counters. MemtableCells includes
// rotated memtables still awaiting flush.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cells := s.mem.len()
	for _, m := range s.imm {
		cells += m.len()
	}
	blocks := 0
	var logical, resident int64
	for _, seg := range s.segments {
		blocks += len(seg.blocks)
		logical += int64(seg.bytes)
		resident += int64(seg.encodedBytes)
	}
	return Stats{
		Puts:                  s.puts,
		Flushes:               s.flushes,
		BackgroundCompactions: s.bgCompact,
		WriteStalls:           s.stalls,
		Segments:              len(s.segments),
		SegmentBlocks:         blocks,
		MemtableCells:         cells,
		ImmutableMemtables:    len(s.imm),
		CompactionDebtBytes:   s.compactionDebtLocked(),
		SegmentLogicalBytes:   logical,
		SegmentResidentBytes:  resident,
	}
}
