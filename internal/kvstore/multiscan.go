package kvstore

import (
	"context"
	"fmt"
	"sort"

	"modissense/internal/obs"
)

// The scan kernel: every row read of the store — Scan and ScanCtx are its
// one-range case, and a one-row read is the range [row, row+"\x00") — runs
// the loop in Store.MultiScanCtx. A personalized query's region function
// reads one contiguous row range per friend hosted in the region —
// thousands of ranges against the same store. Issuing one scan per range
// would re-acquire the store lock and rebuild the memtable and segment
// iterators and a fresh merge view every time. MultiScanCtx serves all
// ranges under one RLock with one iterator set, and prunes segments whose
// [minRow, maxRow] span is disjoint from every requested range. Each range
// positions the merge once (mergeIterator.seekRange): the sources behind
// its start seek forward, and the merge is played over the range's live
// sources only, those whose head row is below its stop. A range that one
// segment holds — most of them, since a friend's visits in one window
// mostly sit in one segment — is read from that segment alone, in row runs:
// each row is handed to the resolver as the subslice of the decoded block
// that holds it (blocks never split a row), and the range's stop is located
// once per block by one binary search instead of compared on every row.
// Rows that several sources or a memtable hold are gathered by the
// tournament a cell at a time and resolved in place; both feed the one row
// resolver, resolveRow.

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

// ValidateScanRanges checks that ranges are non-empty, sorted by Start and
// non-overlapping — the precondition that lets MultiScanCtx serve them with
// one forward pass.
func ValidateScanRanges(ranges []ScanRange) error {
	for i, r := range ranges {
		if r.Stop != "" && r.Stop <= r.Start {
			return fmt.Errorf("kvstore: scan range %d is empty or inverted [%q, %q)", i, r.Start, r.Stop)
		}
		if i == 0 {
			continue
		}
		prev := ranges[i-1]
		if prev.Stop == "" || prev.Stop > r.Start {
			return fmt.Errorf("kvstore: scan ranges %d and %d overlap or are unsorted", i-1, i)
		}
	}
	return nil
}

// clipRanges returns the sub-slice of sorted, non-overlapping ranges that
// intersects [start, end) ("" end = unbounded), its first range starting no
// earlier than start and its last stopping no later than end. The input is
// never written: when an end range needs clipping, the sub-slice is copied
// first. Only the end ranges can: the ranges do not overlap, so any other
// lies wholly inside the bounds.
func clipRanges(ranges []ScanRange, start, end string) []ScanRange {
	lo := sort.Search(len(ranges), func(i int) bool {
		return ranges[i].Stop == "" || ranges[i].Stop > start
	})
	hi := len(ranges)
	if end != "" {
		hi = lo + sort.Search(len(ranges)-lo, func(i int) bool { return ranges[lo+i].Start >= end })
	}
	sub := ranges[lo:hi]
	if len(sub) == 0 {
		return nil
	}
	last := len(sub) - 1
	clipStart := sub[0].Start < start
	clipEnd := end != "" && (sub[last].Stop == "" || sub[last].Stop > end)
	if clipStart || clipEnd {
		sub = append([]ScanRange(nil), sub...)
		if clipStart {
			sub[0].Start = start
		}
		if clipEnd {
			sub[last].Stop = end
		}
	}
	return sub
}

// ClipRanges returns the part of sorted, non-overlapping ranges that falls
// inside the region — the ranges a region-local scan of them serves,
// clipped at the region's bounds exactly as Table.MultiScanCtx clips them.
// The result aliases ranges when no range needed clipping; ranges are never
// written.
func (r *Region) ClipRanges(ranges []ScanRange) []ScanRange {
	return clipRanges(ranges, r.StartKey, r.EndKey())
}

// overlapsRanges reports whether the segment's [minRow, maxRow] span
// intersects any of the sorted, non-overlapping ranges.
func (s *segment) overlapsRanges(ranges []ScanRange) bool {
	if s.numCells == 0 {
		return false
	}
	// First range that ends past the segment's smallest row; if its start
	// is at or below the segment's largest row, they intersect.
	i := sort.Search(len(ranges), func(i int) bool {
		return ranges[i].Stop == "" || ranges[i].Stop > s.minRow
	})
	return i < len(ranges) && ranges[i].Start <= s.maxRow
}

// MultiScanCtx streams resolved rows of every range, in range order then
// key order, to fn; returning false from fn stops the scan early. Ranges
// must be sorted and non-overlapping (ValidateScanRanges). The whole scan
// holds the store read lock once and reuses one iterator set, seeking
// between ranges; asOf hides versions newer than that timestamp (0 = no
// bound). The RowResult passed to fn reuses one backing cell slice across
// rows — callbacks must copy a Cell they retain past their return — but the
// Value bytes it points at are the store's own, which nothing ever rewrites:
// a callback may retain a Value slice as is (see Table.PutBatch).
// Cancellation is polled every ctxPollInterval rows; delivered rows are
// counted into the context's obs.QueryStats and the shared registry in one
// batch at scan end.
func (s *Store) MultiScanCtx(ctx context.Context, ranges []ScanRange, asOf int64, fn func(RowResult) bool) error {
	if fn == nil {
		return fmt.Errorf("kvstore: nil scan callback")
	}
	if err := ValidateScanRanges(ranges); err != nil {
		return err
	}
	if len(ranges) == 0 {
		return nil
	}
	st := obs.QueryStatsFrom(ctx)
	done := ctx.Done()
	if asOf == 0 {
		asOf = int64(1) << 62
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	// probe is the first cell of a range's start row: the iterators are
	// built at the first range's, and each range positions the merge at its
	// own.
	probe := Cell{Row: ranges[0].Start, Timestamp: int64(1) << 62, Tombstone: true}
	var start *Cell
	if probe.Row != "" {
		start = &probe
	}
	var bs blockScanStats
	its, pruned := s.iteratorsLocked(ranges, start, &bs)
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
	for _, rg := range ranges {
		probe.Row = rg.Start
		merged.seekRange(&probe, rg.Stop)
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

// MultiScanCtx is the table-level multi-range scan: ranges are routed to
// the regions they intersect (clipped at region boundaries), each region
// served by one Store.MultiScanCtx call, in global key order. Semantics
// match Store.MultiScanCtx, including the reused RowResult backing slice.
func (t *Table) MultiScanCtx(ctx context.Context, ranges []ScanRange, asOf int64, fn func(RowResult) bool) error {
	if fn == nil {
		return fmt.Errorf("kvstore: nil scan callback")
	}
	if err := ValidateScanRanges(ranges); err != nil {
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
		clipped := clipRanges(ranges, r.StartKey, r.endKey)
		if len(clipped) == 0 {
			continue
		}
		err := r.store.MultiScanCtx(ctx, clipped, asOf, func(res RowResult) bool {
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
