package kvstore

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"modissense/internal/obs"
)

// The scan kernel: every row read of the store — Scan and ScanCtx are its
// one-range case, and a one-row read is the range [row, row+"\x00") — runs
// the loop in Store.MultiScanSource. A personalized query's region function
// reads one contiguous row range per friend hosted in the region —
// thousands of ranges against the same store. It hands them over as a
// RangeSource, the friend ids and the window, never as range strings: the
// scan writes a range's two bounds into one reused buffer just before it
// seeks to them, and compares those bytes against the store's rows in
// place, so a range costs no allocation. Issuing one scan per range would
// re-acquire the store lock and rebuild the memtable and segment iterators
// and a fresh merge view every time. MultiScanSource serves all ranges
// under one RLock with one iterator set, and prunes segments whose [minRow,
// maxRow] span is disjoint from every requested range. Each range positions
// the merge once (mergeIterator.seekRange): the sources behind its start
// seek forward, and the merge is played over the range's live sources only,
// those whose head row is below its stop. A range that one segment holds —
// most of them, since a friend's visits in one window mostly sit in one
// segment — is read from that segment alone, in row runs: each row is
// handed to the resolver as the subslice of the decoded block that holds it
// (blocks never split a row), and the range's stop is located once per
// block by one binary search instead of compared on every row. Rows that
// several sources or a memtable hold are gathered by the tournament a cell
// at a time and resolved in place; both feed the one row resolver,
// resolveRow.

// ctxPollInterval is how many row iterations a scan processes between
// ctx.Done() polls. Cancellation needs to be prompt, not instant: checking
// every row puts a select on the hottest loop in the store for no practical
// gain, so scans poll every 64 rows and deliver at most that many extra
// rows after a cancellation.
const ctxPollInterval = 64

// ScanRange is one [Start, Stop) row range of a multi-range scan.
type ScanRange struct {
	// Start is the inclusive lower bound ("" = from the beginning).
	Start string
	// Stop is the exclusive upper bound ("" = to the end).
	Stop string
}

// contains reports whether the row falls inside the range.
func (r ScanRange) contains(row string) bool {
	return row >= r.Start && (r.Stop == "" || row < r.Stop)
}

// RangeSource is the ranges of a multi-range scan, written on demand: the
// scan asks for a range's bounds only when it reaches the range, into a
// buffer it reuses, so a source need not keep a string per bound. Its ranges
// must be non-empty, sorted and non-overlapping (ValidateScanRanges).
type RangeSource interface {
	// Len is the number of ranges.
	Len() int
	// AppendStart appends range i's inclusive lower bound (empty = from the
	// beginning) to dst and returns the extended buffer.
	AppendStart(dst []byte, i int) []byte
	// AppendStop appends range i's exclusive upper bound (empty = to the
	// end) to dst and returns the extended buffer.
	AppendStop(dst []byte, i int) []byte
}

// ScanRanges is a list of ranges as a RangeSource.
type ScanRanges []ScanRange

// Len is the number of ranges.
func (r ScanRanges) Len() int { return len(r) }

// AppendStart appends range i's Start.
func (r ScanRanges) AppendStart(dst []byte, i int) []byte { return append(dst, r[i].Start...) }

// AppendStop appends range i's Stop.
func (r ScanRanges) AppendStop(dst []byte, i int) []byte { return append(dst, r[i].Stop...) }

// boundBufs pools the buffers scans write range bounds into: two a scan,
// since the order check holds one range's stop while the next range's bounds
// are written. A bound is a row key, so they stay a few dozen bytes.
var boundBufs = sync.Pool{New: func() any { return new([2][]byte) }}

// rangeBounds writes range i's bounds into *buf, reusing its backing array,
// and returns them; they stay valid until *buf is written again.
func rangeBounds(src RangeSource, i int, buf *[]byte) (start, stop []byte) {
	b := src.AppendStart((*buf)[:0], i)
	at := len(b)
	b = src.AppendStop(b, i)
	*buf = b
	return b[:at:at], b[at:]
}

// checkRange checks range i, [start, stop), against the multi-range
// contract: it is non-empty and starts at or after prevStop, the stop of
// range i-1.
func checkRange(i int, start, stop, prevStop []byte) error {
	if len(stop) > 0 && string(stop) <= string(start) {
		return fmt.Errorf("kvstore: scan range %d is empty or inverted [%q, %q)", i, start, stop)
	}
	if i > 0 && (len(prevStop) == 0 || string(prevStop) > string(start)) {
		return fmt.Errorf("kvstore: scan ranges %d and %d overlap or are unsorted", i-1, i)
	}
	return nil
}

// ValidateScanRanges checks that the ranges are non-empty, sorted by start
// and non-overlapping — the precondition that lets a multi-range scan serve
// them with one forward pass.
func ValidateScanRanges(src RangeSource) error {
	bufs := boundBufs.Get().(*[2][]byte)
	defer boundBufs.Put(bufs)
	var prevStop []byte
	for i := range src.Len() {
		start, stop := rangeBounds(src, i, &bufs[i&1])
		if err := checkRange(i, start, stop, prevStop); err != nil {
			return err
		}
		prevStop = stop
	}
	return nil
}

// clippedRanges is the part of a sorted, non-overlapping RangeSource that
// meets [start, end) ("" end = unbounded): its ranges lo to lo+n-1, the
// first starting no earlier than start and the last stopping no later than
// end. Only those two can need the clamp: the ranges do not overlap, so any
// other lies wholly inside the bounds.
type clippedRanges struct {
	src        RangeSource
	lo, n      int
	start, end string
}

// clipRanges finds the ranges of src that meet [start, end) by two binary
// searches over src, writing the bounds it compares into a pooled buffer.
func clipRanges(src RangeSource, start, end string) *clippedRanges {
	bufs := boundBufs.Get().(*[2][]byte)
	defer boundBufs.Put(bufs)
	buf := &bufs[0]
	total := src.Len()
	lo := sort.Search(total, func(i int) bool {
		*buf = src.AppendStop((*buf)[:0], i)
		return len(*buf) == 0 || string(*buf) > start
	})
	hi := total
	if end != "" {
		hi = lo + sort.Search(total-lo, func(i int) bool {
			*buf = src.AppendStart((*buf)[:0], lo+i)
			return string(*buf) >= end
		})
	}
	return &clippedRanges{src: src, lo: lo, n: hi - lo, start: start, end: end}
}

func (c *clippedRanges) Len() int { return c.n }

func (c *clippedRanges) AppendStart(dst []byte, i int) []byte {
	b := c.src.AppendStart(dst, c.lo+i)
	if i == 0 && string(b[len(dst):]) < c.start {
		return append(dst, c.start...)
	}
	return b
}

func (c *clippedRanges) AppendStop(dst []byte, i int) []byte {
	b := c.src.AppendStop(dst, c.lo+i)
	if i == c.n-1 && c.end != "" && (len(b) == len(dst) || string(b[len(dst):]) > c.end) {
		return append(dst, c.end...)
	}
	return b
}

// ClipRanges returns the part of a sorted, non-overlapping range source
// that falls inside the region — the ranges a region-local scan of them
// serves, clipped at the region's bounds exactly as Table.MultiScanCtx clips
// them: a range that a split divided starts at the region's start key, or
// stops at its end key. The source is searched, never copied.
func (r *Region) ClipRanges(src RangeSource) RangeSource {
	return clipRanges(src, r.StartKey, r.EndKey())
}

// overlapsRanges reports whether the segment's [minRow, maxRow] span
// intersects any of the sorted, non-overlapping ranges, writing the bounds
// it compares into *buf.
func (s *segment) overlapsRanges(src RangeSource, buf *[]byte) bool {
	if s.numCells == 0 {
		return false
	}
	// First range that ends past the segment's smallest row; if its start
	// is at or below the segment's largest row, they intersect.
	n := src.Len()
	i := sort.Search(n, func(i int) bool {
		*buf = src.AppendStop((*buf)[:0], i)
		return len(*buf) == 0 || string(*buf) > s.minRow
	})
	if i == n {
		return false
	}
	*buf = src.AppendStart((*buf)[:0], i)
	return string(*buf) <= s.maxRow
}

// MultiScanSource streams resolved rows of every range of src, in range
// order then key order, to fn; returning false from fn stops the scan
// early. Ranges must be sorted and non-overlapping: each range is checked
// as its bounds are written, and the scan fails at the first that breaks the
// order, after delivering what the ranges before it held (validate a source
// first, ValidateScanRanges, to fail before any row). The whole scan holds
// the store read lock once and reuses one iterator set, seeking between
// ranges, and two buffers for the bounds; asOf hides versions
// newer than that timestamp (0 = no bound). The RowResult passed to fn
// reuses one backing cell slice across rows — callbacks must copy a Cell
// they retain past their return — but the Value bytes it points at are the
// store's own, which nothing ever rewrites: a callback may retain a Value
// slice as is (see Table.PutBatch). Cancellation is polled every
// ctxPollInterval rows; delivered rows are counted into the context's
// obs.QueryStats and the shared registry in one batch at scan end.
func (s *Store) MultiScanSource(ctx context.Context, src RangeSource, asOf int64, fn func(RowResult) bool) error {
	if fn == nil {
		return fmt.Errorf("kvstore: nil scan callback")
	}
	bufs := boundBufs.Get().(*[2][]byte)
	defer boundBufs.Put(bufs)
	n := src.Len()
	if n == 0 {
		return nil
	}
	st := obs.QueryStatsFrom(ctx)
	done := ctx.Done()
	if asOf == 0 {
		asOf = math.MaxInt64
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	// The iterators are built at the first range's start, and each range
	// positions the merge at its own. Pruning writes its bounds into the
	// second buffer, so the first still holds that start.
	start, _ := rangeBounds(src, 0, &bufs[0])
	var bs blockScanStats
	its, pruned := s.iteratorsLocked(src, start, &bs, &bufs[1])
	merged := newMergeIterator(its)
	var delivered int64
	defer func() {
		st.AddRows(delivered)
		st.AddBlocksDecoded(bs.decoded)
		st.AddBlocksSkipped(bs.skipped)
		bs.flush()
		mRowsScanned.Add(delivered)
		mSegsPruned.Add(int64(pruned))
		if sp := obs.SpanFromContext(ctx); sp != nil {
			// One child span per store-level multiscan keeps the per-scan
			// block accounting out of the (append-only) parent attrs.
			c := sp.Child("kvstore.multiscan")
			c.SetAttrInt("blocks_decoded", bs.decoded)
			c.SetAttrInt("blocks_cache_hits", bs.cacheHits)
			c.SetAttrInt("blocks_skipped", bs.skipped)
			c.SetAttrInt("segments_pruned", int64(pruned))
			c.End()
		}
	}()
	// res.Cells is both the resolved row handed to fn and the buffer a
	// multi-source row is gathered into and resolved in place.
	res := RowResult{}
	iter := 0
	var prevStop []byte
	for i := range n {
		// Ranges take the two buffers in turn: the merge reads a range's
		// stop while it runs, and the next range's check reads it after.
		start, stop := rangeBounds(src, i, &bufs[i&1])
		if err := checkRange(i, start, stop, prevStop); err != nil {
			return err
		}
		prevStop = stop
		merged.seekRange(start, stop)
		for {
			cells := merged.nextRow(&res.Cells)
			if cells == nil {
				break
			}
			if done != nil && iter%ctxPollInterval == 0 {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			iter++
			res.Row = cells[0].Row
			res.Cells = resolveRow(cells, asOf, res.Cells[:0])
			if !res.Empty() {
				delivered++
				if !fn(res) {
					return nil
				}
			}
		}
	}
	return nil
}

// MultiScanCtx is MultiScanSource over a list of ranges.
func (s *Store) MultiScanCtx(ctx context.Context, ranges []ScanRange, asOf int64, fn func(RowResult) bool) error {
	return s.MultiScanSource(ctx, ScanRanges(ranges), asOf, fn)
}

// MultiScanCtx is the table-level multi-range scan: ranges are routed to
// the regions they intersect (clipped at region boundaries), each region
// served by one Store.MultiScanSource call, in global key order. Semantics
// match Store.MultiScanSource, including the reused RowResult backing slice.
func (t *Table) MultiScanCtx(ctx context.Context, ranges []ScanRange, asOf int64, fn func(RowResult) bool) error {
	if fn == nil {
		return fmt.Errorf("kvstore: nil scan callback")
	}
	src := ScanRanges(ranges)
	if err := ValidateScanRanges(src); err != nil {
		return err
	}
	if len(ranges) == 0 {
		return nil
	}
	regions := t.frozenRegions()
	stopped := false
	for _, r := range regions {
		if stopped {
			return nil
		}
		clipped := clipRanges(src, r.StartKey, r.endKey)
		if clipped.n == 0 {
			continue
		}
		err := r.store.MultiScanSource(ctx, clipped, asOf, func(res RowResult) bool {
			if !fn(res) {
				stopped = true
			}
			return !stopped
		})
		if err != nil {
			return err
		}
	}
	return nil
}
