package kvstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"modissense/internal/obs"
)

// copyRow deep-copies a RowResult (MultiScanCtx reuses the backing slice).
func copyRow(res RowResult) RowResult {
	out := RowResult{Row: res.Row, Cells: make([]Cell, len(res.Cells))}
	copy(out.Cells, res.Cells)
	return out
}

// TestValidateScanRanges: ValidateScanRanges, the table's scan and a store's
// scan, which checks each range as it reaches it, all refuse a list that
// breaks the multi-range contract.
func TestValidateScanRanges(t *testing.T) {
	s, err := NewStore(DefaultStoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := NewTable("t", []string{"m"}, 1, DefaultStoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		ranges []ScanRange
		ok     bool
	}{
		{"empty set", nil, true},
		{"single unbounded", []ScanRange{{}}, true},
		{"sorted disjoint", []ScanRange{{"a", "b"}, {"b", "c"}, {"x", ""}}, true},
		{"inverted", []ScanRange{{"b", "a"}}, false},
		{"empty range", []ScanRange{{"a", "a"}}, false},
		{"overlap", []ScanRange{{"a", "c"}, {"b", "d"}}, false},
		{"unsorted", []ScanRange{{"m", "n"}, {"a", "b"}}, false},
		{"unbounded stop not last", []ScanRange{{"a", ""}, {"b", "c"}}, false},
	}
	for _, tc := range cases {
		if err := ValidateScanRanges(ScanRanges(tc.ranges)); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		all := func(RowResult) bool { return true }
		if err := s.MultiScanCtx(context.Background(), tc.ranges, 0, all); (err == nil) != tc.ok {
			t.Errorf("%s: store scan err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err := tbl.MultiScanCtx(context.Background(), tc.ranges, 0, all); (err == nil) != tc.ok {
			t.Errorf("%s: table scan err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// scanModel is what a store must answer, built by the test from its own
// writes and sharing nothing with the store: per row, per qualifier, per
// timestamp, the last put written there and whether a delete was.
type scanModel map[string]map[string]map[int64]*modelVersion

type modelVersion struct {
	value   []byte
	deleted bool
}

func (m scanModel) at(row, q string, ts int64) *modelVersion {
	if m[row] == nil {
		m[row] = map[string]map[int64]*modelVersion{}
	}
	if m[row][q] == nil {
		m[row][q] = map[int64]*modelVersion{}
	}
	if m[row][q][ts] == nil {
		m[row][q][ts] = &modelVersion{}
	}
	return m[row][q][ts]
}

// row resolves one row as of asOf (0 = no bound), in qualifier order: the
// newest timestamp at or below asOf decides each qualifier, a delete there
// hides it (and masks a put at the same timestamp), otherwise the last value
// put there is the qualifier's.
func (m scanModel) row(row string, asOf int64) []Cell {
	quals := make([]string, 0, len(m[row]))
	for q := range m[row] {
		quals = append(quals, q)
	}
	sort.Strings(quals)
	var out []Cell
	for _, q := range quals {
		newest := int64(-1)
		for ts := range m[row][q] {
			if (asOf == 0 || ts <= asOf) && ts > newest {
				newest = ts
			}
		}
		if v := m[row][q][newest]; v != nil && !v.deleted {
			out = append(out, Cell{Row: row, Qualifier: q, Timestamp: newest, Value: v.value})
		}
	}
	return out
}

// scan resolves every row the ranges hold as of asOf, leaving out the rows
// with no live qualifier.
func (m scanModel) scan(ranges []ScanRange, asOf int64) []RowResult {
	rows := make([]string, 0, len(m))
	for row := range m {
		rows = append(rows, row)
	}
	sort.Strings(rows)
	var out []RowResult
	for _, rg := range ranges {
		for _, row := range rows {
			if !rg.contains(row) {
				continue
			}
			if cells := m.row(row, asOf); len(cells) > 0 {
				out = append(out, RowResult{Row: row, Cells: cells})
			}
		}
	}
	return out
}

// TestMultiScanEquivalenceRandomized is the scan kernel's correctness
// property: MultiScanCtx over K sorted disjoint ranges, and ScanCtx over each
// of them in turn, must both deliver exactly the rows the model of the test's
// own writes holds. The first half of the trials writes random data over the
// memtable and a few segments, with deletes, version history and
// same-timestamp rewrites. The second half builds many-segment stores the way
// the benchmark's preload does — rows written in key order, a flush every few
// rows, so segments are disjoint — then writes a random tail of rewrites,
// same-timestamp rewrites and tombstones into newer sources. Those trials
// must see both ranges that one source holds alone and ranges that several
// live sources share.
func TestMultiScanEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	seen := map[bool]int{} // several live sources? → ranges seen
	for trial := 0; trial < 50; trial++ {
		manySegments := trial >= 25
		opts := DefaultStoreOptions()
		opts.FlushThresholdBytes = 1 << 30 // manual flushes only
		if manySegments {
			opts.CompactionTrigger = 1 << 20 // keep every flushed segment
		}
		s, err := NewStore(opts)
		if err != nil {
			t.Fatal(err)
		}
		model := scanModel{}
		write := func(i int, row string, ts int64, del bool) {
			c := Cell{Row: row, Qualifier: "q", Timestamp: ts, Tombstone: del}
			if del {
				model.at(row, "q", ts).deleted = true
			} else {
				c.Value = []byte(fmt.Sprintf("%s@%d#%d", row, ts, i))
				model.at(row, "q", ts).value = c.Value
			}
			if err := s.ApplyBatch([]Cell{c}); err != nil {
				t.Fatal(err)
			}
		}
		flush := func() {
			if err := flushNow(s); err != nil {
				t.Fatal(err)
			}
		}
		if !manySegments {
			nRows := 50 + rng.Intn(400)
			for i := 0; i < nRows; i++ {
				row := fmt.Sprintf("r%05d", rng.Intn(600))
				ts := int64(1 + rng.Intn(5))
				write(i, row, ts, rng.Intn(10) == 0)
				if rng.Intn(60) == 0 {
					flush()
				}
			}
		} else {
			every := 5 + rng.Intn(40)
			var rows []string
			var stamps []int64
			for key := rng.Intn(3); key < 600; key += 1 + rng.Intn(3) {
				rows = append(rows, fmt.Sprintf("r%05d", key))
				stamps = append(stamps, int64(1+rng.Intn(3)))
				write(len(rows), rows[len(rows)-1], stamps[len(stamps)-1], false)
				if len(rows)%every == 0 {
					flush()
				}
			}
			flush()
			tail := rng.Intn(40)
			for i := 0; i < tail; i++ {
				j := rng.Intn(len(rows))
				switch rng.Intn(3) {
				case 0: // a tombstone, at or above the row's version
					write(len(rows)+i, rows[j], stamps[j]+int64(rng.Intn(2)), true)
				case 1: // a same-timestamp rewrite
					write(len(rows)+i, rows[j], stamps[j], false)
				default: // a newer version
					write(len(rows)+i, rows[j], stamps[j]+1+int64(rng.Intn(2)), false)
				}
				if rng.Intn(8) == 0 {
					flush()
				}
			}
		}
		// Random sorted, non-overlapping ranges over the key space.
		var ranges []ScanRange
		cursor := 0
		for cursor < 600 && len(ranges) < 12 {
			start := cursor + rng.Intn(60)
			stop := start + 1 + rng.Intn(80)
			r := ScanRange{Start: fmt.Sprintf("r%05d", start)}
			if stop < 600 || rng.Intn(4) > 0 {
				r.Stop = fmt.Sprintf("r%05d", stop)
			}
			ranges = append(ranges, r)
			if r.Stop == "" {
				break
			}
			cursor = stop
		}
		asOf := int64(rng.Intn(6)) // 0 = unbounded
		want := model.scan(ranges, asOf)
		var multi []RowResult
		err = s.MultiScanCtx(context.Background(), ranges, asOf, func(res RowResult) bool {
			multi = append(multi, copyRow(res))
			return true
		})
		if err != nil {
			t.Fatalf("trial %d: MultiScanCtx: %v", trial, err)
		}
		if !rowResultsEqual(multi, want) {
			t.Fatalf("trial %d: multi-range scan diverged from the model\nmulti: %d rows\nmodel: %d rows", trial, len(multi), len(want))
		}
		var seq []RowResult
		for _, rg := range ranges {
			err := scanStore(s, ScanOptions{StartRow: rg.Start, StopRow: rg.Stop, AsOf: asOf}, func(res RowResult) bool {
				seq = append(seq, copyRow(res))
				return true
			})
			if err != nil {
				t.Fatalf("trial %d: one-range scan: %v", trial, err)
			}
		}
		if !rowResultsEqual(seq, want) {
			t.Fatalf("trial %d: one-range scans diverged from the model\nseq:   %d rows\nmodel: %d rows", trial, len(seq), len(want))
		}
		if manySegments {
			sizes, _ := liveSetSizes(s, ranges)
			for _, n := range sizes {
				if n > 0 {
					seen[n > 1]++
				}
			}
		}
	}
	t.Logf("many-segment trials: %d ranges with one live source, %d with several", seen[false], seen[true])
	if seen[false] == 0 || seen[true] == 0 {
		t.Fatalf("the many-segment trials saw %d ranges with one live source and %d with several, want both", seen[false], seen[true])
	}
}

// liveSetSizes positions one merge over the store's stack at each range in
// turn, as MultiScanCtx does, and returns the size of each range's live set
// and whether the range is read in row runs (its one live source is a
// segment).
func liveSetSizes(s *Store, ranges []ScanRange) ([]int, []bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	its, _ := s.iteratorsLocked(ScanRanges(ranges), nil, &blockScanStats{}, new([]byte))
	m := newMergeIterator(its)
	sizes := make([]int, len(ranges))
	runs := make([]bool, len(ranges))
	for i, rg := range ranges {
		m.seekRange([]byte(rg.Start), []byte(rg.Stop))
		sizes[i], runs[i] = len(m.live), m.run != nil
	}
	return sizes, runs
}

// TestMultiScanRowShapes is TestMultiScanEquivalenceRandomized's sibling for
// the row shapes its one-qualifier model never makes: rows of several
// qualifiers, several versions of a qualifier and tombstones inside one
// block, blocks of a few rows (every block ends with a row's last cell), and
// range stops that fall inside a block or on a block's first row.
// MultiScanCtx, ScanCtx over each range and GetAt of every key must all
// answer what the model of the test's own writes holds. Even trials leave
// one segment and nothing else, so their ranges are read as row runs; odd
// trials write a tail of rewrites and tombstones over it into a newer
// segment and the memtable, so rows are gathered from several sources too.
// The trials must see both, and both kinds of stop in ranges read as runs.
func TestMultiScanRowShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	quals := []string{"a", "b", "c", "d"}
	key := func(n int) string { return fmt.Sprintf("r%04d", n) }
	seen := map[string]int{}
	for trial := 0; trial < 40; trial++ {
		layered := trial%2 == 1
		opts := DefaultStoreOptions()
		opts.FlushThresholdBytes = 1 << 30 // manual flushes only
		opts.CompactionTrigger = 1 << 20   // keep every flushed segment
		opts.BlockSizeBytes = 48 + rng.Intn(200)
		s, err := NewStore(opts)
		if err != nil {
			t.Fatal(err)
		}
		model := scanModel{}
		writes := 0
		write := func(row, q string, ts int64, del bool) {
			writes++
			c := Cell{Row: row, Qualifier: q, Timestamp: ts, Tombstone: del}
			if del {
				model.at(row, q, ts).deleted = true
			} else {
				c.Value = []byte(fmt.Sprintf("%s/%s@%d#%d", row, q, ts, writes))
				model.at(row, q, ts).value = c.Value
			}
			if err := s.ApplyBatch([]Cell{c}); err != nil {
				t.Fatal(err)
			}
		}
		flush := func() {
			if err := flushNow(s); err != nil {
				t.Fatal(err)
			}
		}
		// Rows at even keys only, so an odd key is a stop between two rows.
		for n := 0; n < 400; n += 2 * (1 + rng.Intn(2)) {
			for _, q := range quals {
				if rng.Intn(2) == 0 {
					continue
				}
				for v := 1 + rng.Intn(3); v > 0; v-- {
					write(key(n), q, int64(1+rng.Intn(6)), rng.Intn(6) == 0)
				}
			}
		}
		flush()
		// Stops on a block's first row, and inside a block: past its first
		// row, at or below its last.
		var firsts, inside []string
		s.mu.RLock()
		base := s.segments[0]
		for _, b := range base.blocks {
			firsts = append(firsts, b.minRow)
			var lo, hi int
			fmt.Sscanf(b.minRow, "r%d", &lo)
			fmt.Sscanf(b.maxRow, "r%d", &hi)
			if hi > lo {
				inside = append(inside, key(lo+1+rng.Intn(hi-lo)))
			}
		}
		blocks := len(base.blocks)
		s.mu.RUnlock()
		if blocks < 4 {
			t.Fatalf("trial %d: the segment has %d blocks, want several", trial, blocks)
		}
		if layered {
			for i := 0; i < 60; i++ {
				write(key(2*rng.Intn(200)), quals[rng.Intn(len(quals))], int64(1+rng.Intn(7)), rng.Intn(4) == 0)
				if i == 30 {
					flush()
				}
			}
		}
		// Sorted, non-overlapping ranges whose stops are drawn from the two
		// lists or at random; the last may be unbounded.
		var ranges []ScanRange
		var kinds []string
		cursor := 0
		for len(ranges) < 8 && cursor < 400 {
			start := key(cursor + rng.Intn(40))
			if cursor == 0 && rng.Intn(4) == 0 {
				start = ""
			}
			kind, stop := "random", key(cursor+41+rng.Intn(60))
			if k := rng.Intn(3); k < 2 {
				list := [2][]string{firsts, inside}[k]
				if i := sort.SearchStrings(list, start+"\x00"); i < len(list) {
					kind = [2]string{"stop on a block's first row", "stop inside a block"}[k]
					stop = list[i+rng.Intn(min(3, len(list)-i))]
				}
			}
			if stop >= key(400) {
				stop = ""
			}
			ranges = append(ranges, ScanRange{Start: start, Stop: stop})
			kinds = append(kinds, kind)
			if stop == "" {
				break
			}
			fmt.Sscanf(stop, "r%d", &cursor)
		}
		asOf := int64(rng.Intn(8)) // 0 = unbounded
		want := model.scan(ranges, asOf)
		var multi []RowResult
		err = s.MultiScanCtx(context.Background(), ranges, asOf, func(res RowResult) bool {
			multi = append(multi, copyRow(res))
			return true
		})
		if err != nil {
			t.Fatalf("trial %d: MultiScanCtx: %v", trial, err)
		}
		if !rowResultsEqual(multi, want) {
			t.Fatalf("trial %d: multi-range scan diverged from the model: %s", trial, firstRowDiff(multi, want))
		}
		var seq []RowResult
		for _, rg := range ranges {
			err := scanStore(s, ScanOptions{StartRow: rg.Start, StopRow: rg.Stop, AsOf: asOf}, func(res RowResult) bool {
				seq = append(seq, copyRow(res))
				return true
			})
			if err != nil {
				t.Fatalf("trial %d: one-range scan: %v", trial, err)
			}
		}
		if !rowResultsEqual(seq, want) {
			t.Fatalf("trial %d: one-range scans diverged from the model: %s", trial, firstRowDiff(seq, want))
		}
		for n := 0; n < 401; n++ {
			res, err := readRow(s, key(n), asOf)
			if err != nil {
				t.Fatal(err)
			}
			if w := (RowResult{Row: key(n), Cells: model.row(key(n), asOf)}); !rowResultsEqual([]RowResult{res}, []RowResult{w}) {
				t.Fatalf("trial %d: readRow(%s, %d) = %v, model %v", trial, key(n), asOf, res.Cells, w.Cells)
			}
		}
		_, runs := liveSetSizes(s, ranges)
		for i, run := range runs {
			if !run {
				seen["gathered"]++
				continue
			}
			seen["row run"]++
			seen[kinds[i]]++
		}
	}
	t.Logf("ranges seen: %v", seen)
	for _, k := range []string{"row run", "gathered", "stop on a block's first row", "stop inside a block"} {
		if seen[k] == 0 {
			t.Fatalf("no trial saw a range of kind %q: %v", k, seen)
		}
	}
}

// TestMultiScanEarlyStopAndCancel checks the callback-stop and cancellation
// contracts of the multi-range path.
func TestMultiScanEarlyStopAndCancel(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 500; i++ {
		if err := s.ApplyBatch([]Cell{{Row: fmt.Sprintf("r%05d", i), Qualifier: "q", Timestamp: 1, Value: []byte("v")}}); err != nil {
			t.Fatal(err)
		}
	}
	ranges := []ScanRange{{"r00000", "r00250"}, {"r00250", ""}}
	seen := 0
	if err := s.MultiScanCtx(context.Background(), ranges, 0, func(RowResult) bool {
		seen++
		return seen < 7
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 7 {
		t.Errorf("early stop delivered %d rows, want 7", seen)
	}
	ctx, cancel := context.WithCancel(context.Background())
	seen = 0
	err := s.MultiScanCtx(ctx, ranges, 0, func(RowResult) bool {
		seen++
		if seen == 5 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled multi-scan: err = %v, want context.Canceled", err)
	}
	if seen < 5 || seen > 5+ctxPollInterval {
		t.Errorf("cancelled multi-scan delivered %d rows, want within one poll interval of 5", seen)
	}
}

// TestMultiScanStatsBatched checks delivered rows reach the context's
// obs.QueryStats in one batch.
func TestMultiScanStatsBatched(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 100; i++ {
		if err := s.ApplyBatch([]Cell{{Row: fmt.Sprintf("r%05d", i), Qualifier: "q", Timestamp: 1, Value: []byte("v")}}); err != nil {
			t.Fatal(err)
		}
	}
	st := &obs.QueryStats{}
	ctx := obs.WithQueryStats(context.Background(), st)
	if err := s.MultiScanCtx(ctx, []ScanRange{{"r00010", "r00020"}, {"r00050", "r00055"}}, 0, func(RowResult) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if got := st.Snapshot().RowsScanned; got != 15 {
		t.Errorf("stats recorded %d rows, want 15", got)
	}
}

// firstRowDiff describes where two row sequences first differ.
func firstRowDiff(got, want []RowResult) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if !rowResultsEqual(got[i:i+1], want[i:i+1]) {
			return fmt.Sprintf("row %d is %v, want %v", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("%d rows, want %d", len(got), len(want))
}

// TestMultiScanRowAllocsFlat keeps the row loop free of allocations: on a
// warm single-segment store, a scan over 10 rows and one over 1 000 make the
// same number of allocations, those of setting the scan up.
func TestMultiScanRowAllocsFlat(t *testing.T) {
	opts := DefaultStoreOptions()
	opts.FlushThresholdBytes = 1 << 30 // manual flushes only
	opts.BlockCache = NewBlockCache(16 << 20)
	s, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := s.ApplyBatch([]Cell{{Row: fmt.Sprintf("r%05d", i), Qualifier: "q", Timestamp: 1, Value: []byte("0123456789abcdef")}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := flushNow(s); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Segments != 1 || st.MemtableCells != 0 || st.SegmentBlocks < 2 {
		t.Fatalf("store holds %d segments of %d blocks and %d memtable cells, want one segment of several blocks alone", st.Segments, st.SegmentBlocks, st.MemtableCells)
	}
	ctx := context.Background()
	scan := func(stop string, want int) func() {
		ranges := []ScanRange{{Start: "r00000", Stop: stop}}
		return func() {
			rows := 0
			if err := s.MultiScanCtx(ctx, ranges, 0, func(RowResult) bool { rows++; return true }); err != nil || rows != want {
				t.Fatalf("scan to %q delivered %d rows (err %v), want %d", stop, rows, err, want)
			}
		}
	}
	scan("", 1000)() // warms the block cache
	few := testing.AllocsPerRun(50, scan("r00010", 10))
	many := testing.AllocsPerRun(50, scan("", 1000))
	if few != many {
		t.Fatalf("a scan over 10 rows allocates %.1f times, one over 1 000 rows %.1f", few, many)
	}
}

// TestMultiScanSegmentPruning verifies segments disjoint from every range
// are skipped from the iterator stack.
func TestMultiScanSegmentPruning(t *testing.T) {
	s := newTestStore(t)
	// Three disjoint key clusters flushed into three segments.
	for seg, prefix := range []string{"a", "m", "z"} {
		for i := 0; i < 20; i++ {
			if err := s.ApplyBatch([]Cell{{Row: fmt.Sprintf("%s%04d", prefix, i), Qualifier: "q", Timestamp: int64(seg + 1), Value: []byte(prefix)}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := flushNow(s); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.segments) != 3 {
		t.Fatalf("got %d segments, want 3", len(s.segments))
	}
	cases := []struct {
		ranges []ScanRange
		pruned int
	}{
		{[]ScanRange{{"a", "b"}}, 2}, // only the "a" segment
		{[]ScanRange{{"m", "n"}}, 2}, // only the "m" segment
		{[]ScanRange{{"a", "b"}, {"z", ""}}, 1},
		{[]ScanRange{{"", ""}}, 0},   // unbounded touches all
		{[]ScanRange{{"c", "d"}}, 3}, // gap between clusters
	}
	s.mu.RLock()
	for i, tc := range cases {
		_, pruned := s.iteratorsLocked(ScanRanges(tc.ranges), nil, &blockScanStats{}, new([]byte))
		if pruned != tc.pruned {
			t.Errorf("case %d: pruned %d segments, want %d", i, pruned, tc.pruned)
		}
	}
	s.mu.RUnlock()
	// Pruning must not change results: scan a range served by one segment.
	rows := 0
	if err := s.MultiScanCtx(context.Background(), []ScanRange{{"m", "n"}}, 0, func(res RowResult) bool {
		rows++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 20 {
		t.Errorf("pruned scan delivered %d rows, want 20", rows)
	}
}

// TestOneRowReadsAcrossDisjointSegments reads single rows — the one-row
// range [row, row+"\x00") — from a store of key-disjoint flushed segments:
// random present rows resolve to their value, absent rows outside every
// segment's span and inside one resolve empty, and a one-row read among 16
// segments decodes at most one block while the other segments' blocks are
// counted as skipped.
func TestOneRowReadsAcrossDisjointSegments(t *testing.T) {
	opts := DefaultStoreOptions()
	opts.FlushThresholdBytes = 1 << 30
	opts.CompactionTrigger = 1 << 30 // keep segments separate
	opts.BlockSizeBytes = 512        // several blocks a segment
	s, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	const segments = 16
	rng := rand.New(rand.NewSource(33))
	written := map[string]string{}
	for seg := 0; seg < segments; seg++ {
		for i := 0; i < 200; i++ {
			row := fmt.Sprintf("seg%02d-row%04d", seg, i)
			val := fmt.Sprintf("v-%d-%d", seg, i)
			if err := s.ApplyBatch([]Cell{{Row: row, Qualifier: "q", Timestamp: 1, Value: []byte(val)}}); err != nil {
				t.Fatal(err)
			}
			written[row] = val
		}
		if err := flushNow(s); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.segments) != segments {
		t.Fatalf("got %d segments, want %d", len(s.segments), segments)
	}
	// Present rows resolve correctly.
	for row, want := range written {
		if rng.Intn(10) != 0 {
			continue // sample
		}
		res, err := readRow(s, row, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := res.Get("q"); !ok || string(v) != want {
			t.Fatalf("row %s = %q/%v, want %q", row, v, ok, want)
		}
	}
	// Absent rows resolve empty, whether they fall outside every segment's
	// span or inside one.
	for i := 0; i < 100; i++ {
		for _, row := range []string{fmt.Sprintf("ghost-%d", i), fmt.Sprintf("seg%02d-row%04d-ghost", rng.Intn(segments), rng.Intn(200))} {
			res, err := readRow(s, row, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Empty() {
				t.Fatalf("absent row %s returned %v", row, res.Cells)
			}
		}
	}
	// One row among the 16 segments: its own segment reads the one block
	// that can hold it; every other segment is pruned, blocks and all.
	row := "seg07-row0123"
	others, target := 0, 0
	for _, seg := range s.segments {
		if seg.minRow <= row && row <= seg.maxRow {
			target = seg.seekBlocks(0, []byte(row))
			continue
		}
		others += len(seg.blocks)
	}
	if others < 2*(segments-1) || target == 0 {
		t.Fatalf("the other segments hold %d blocks and %d precede the row's, want several each", others, target)
	}
	st := &obs.QueryStats{}
	ctx := obs.WithQueryStats(context.Background(), st)
	if err := s.MultiScanCtx(ctx, []ScanRange{{Start: row, Stop: row + "\x00"}}, 0, func(RowResult) bool { return true }); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if snap.BlocksDecoded > 1 {
		t.Errorf("one-row read decoded %d blocks, want at most 1", snap.BlocksDecoded)
	}
	if want := int64(others + target); snap.BlocksSkipped != want {
		t.Errorf("one-row read skipped %d blocks, want %d (the other segments' %d and the %d before the row's block)", snap.BlocksSkipped, want, others, target)
	}
}

// TestSegmentMetadataSurvivesFlushCompactReplay is the satellite guarding
// the pruning metadata: min/max row keys must be rebuilt identically by
// memtable flush, compaction and WAL replay.
func TestSegmentMetadataSurvivesFlushCompactReplay(t *testing.T) {
	checkSegments := func(t *testing.T, s *Store, wantMin, wantMax string, rows []string) {
		t.Helper()
		s.mu.RLock()
		defer s.mu.RUnlock()
		if len(s.segments) == 0 {
			t.Fatal("no segments")
		}
		min, max := s.segments[0].minRow, s.segments[0].maxRow
		for _, seg := range s.segments {
			if seg.minRow == "" || seg.maxRow == "" || seg.minRow > seg.maxRow {
				t.Errorf("segment %d has bad bounds [%q, %q]", seg.id, seg.minRow, seg.maxRow)
			}
			if seg.minRow < min {
				min = seg.minRow
			}
			if seg.maxRow > max {
				max = seg.maxRow
			}
		}
		if min != wantMin || max != wantMax {
			t.Errorf("segment bounds [%q, %q], want [%q, %q]", min, max, wantMin, wantMax)
		}
		for _, row := range rows {
			found := false
			for _, seg := range s.segments {
				if seg.minRow <= row && row <= seg.maxRow {
					found = true
				}
			}
			if !found {
				t.Errorf("no segment span covers stored row %q", row)
			}
		}
	}
	rows := make([]string, 40)
	for i := range rows {
		rows[i] = fmt.Sprintf("row-%04d", i*3)
	}

	t.Run("flush and compact", func(t *testing.T) {
		opts := DefaultStoreOptions()
		opts.FlushThresholdBytes = 1 << 30
		opts.CompactionTrigger = 3 // the third flush sets off a background merge
		s, err := NewStore(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			if err := s.ApplyBatch([]Cell{{Row: row, Qualifier: "q", Timestamp: int64(i + 1), Value: []byte("v")}}); err != nil {
				t.Fatal(err)
			}
			if i%10 == 9 {
				if err := flushNow(s); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := flushNow(s); err != nil {
			t.Fatal(err)
		}
		if s.Stats().BackgroundCompactions == 0 {
			t.Fatal("no background compaction ran")
		}
		checkSegments(t, s, rows[0], rows[len(rows)-1], rows)
	})

	t.Run("wal replay", func(t *testing.T) {
		walPath := filepath.Join(t.TempDir(), "table.wal")
		opts := DefaultStoreOptions()
		tbl, err := OpenDurableTable("visits", nil, 1, opts, walPath)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			if err := tbl.Put(row, "q", int64(i+1), []byte(row)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenDurableTable("visits", nil, 1, opts, walPath)
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		st := reopened.Regions()[0].Store()
		if err := flushNow(st); err != nil {
			t.Fatal(err)
		}
		checkSegments(t, st, rows[0], rows[len(rows)-1], rows)
		// Replayed data must still read correctly through both paths.
		res, err := readRow(reopened, rows[7], 0)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := res.Get("q"); !ok || string(v) != rows[7] {
			t.Errorf("replayed readRow(%q) = %q/%v", rows[7], v, ok)
		}
		seen := 0
		if err := reopened.MultiScanCtx(context.Background(), []ScanRange{{rows[0], rows[5]}, {rows[10], ""}}, 0, func(RowResult) bool {
			seen++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if seen != 5+30 {
			t.Errorf("replayed multi-scan delivered %d rows, want 35", seen)
		}
	})
}

// TestTableMultiScanConcurrentMutations races Table.MultiScanCtx against
// concurrent Put/Flush/SplitRegion — run under -race this is the satellite's
// concurrency check. Scans observe a frozen region view, so each completes
// without error; row payloads written before the scans start must all be
// visible.
func TestTableMultiScanConcurrentMutations(t *testing.T) {
	tbl := newTestTable(t, []string{"r00300", "r00600"}, 2)
	for i := 0; i < 900; i++ {
		if err := tbl.Put(fmt.Sprintf("r%05d", i), "q", 1, []byte("base")); err != nil {
			t.Fatal(err)
		}
	}
	ranges := []ScanRange{{"r00000", "r00200"}, {"r00250", "r00500"}, {"r00700", ""}}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(3)
	go func() { // writer
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = tbl.Put(fmt.Sprintf("r%05d", i%900), "q", int64(2+i), []byte("update"))
		}
	}()
	go func() { // flusher
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, r := range tbl.Regions() {
				_ = flushNow(r.Store())
			}
		}
	}()
	go func() { // splitter
		defer wg.Done()
		keys := []string{"r00150", "r00450", "r00750"}
		for _, k := range keys {
			select {
			case <-stop:
				return
			default:
			}
			_ = tbl.SplitRegion(k)
		}
	}()
	for trial := 0; trial < 30; trial++ {
		seen := map[string]bool{}
		err := tbl.MultiScanCtx(context.Background(), ranges, 0, func(res RowResult) bool {
			if seen[res.Row] {
				t.Errorf("row %q delivered twice", res.Row)
			}
			seen[res.Row] = true
			return true
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := 200 + 250 + 200
		if len(seen) != want {
			t.Fatalf("trial %d: saw %d rows, want %d", trial, len(seen), want)
		}
	}
	close(stop)
	wg.Wait()
}

// collectRanges writes out every range of src.
func collectRanges(src RangeSource) []ScanRange {
	var out []ScanRange
	for i := range src.Len() {
		out = append(out, ScanRange{Start: string(src.AppendStart(nil, i)), Stop: string(src.AppendStop(nil, i))})
	}
	return out
}

// TestClipRanges holds Region.ClipRanges (and so Table.MultiScanCtx's
// routing) to the linear per-range clip it replaced, over random ranges and
// region bounds — open ends and bounds inside a range included — and checks
// that the caller's ranges are never written.
func TestClipRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	key := func() string { return fmt.Sprintf("u%04d", rng.Intn(4000)) }
	for trial := 0; trial < 2000; trial++ {
		ranges := genRanges(rng, 1+rng.Intn(12))
		if len(ranges) > 0 && rng.Intn(4) == 0 {
			ranges[0].Start = ""
		}
		if len(ranges) > 0 && rng.Intn(4) == 0 {
			ranges[len(ranges)-1].Stop = ""
		}
		start, end := key(), key()
		if start > end {
			start, end = end, start
		}
		if rng.Intn(4) == 0 {
			start = ""
		}
		if rng.Intn(4) == 0 {
			end = ""
		}
		var want []ScanRange
		for _, rg := range ranges {
			if end != "" && rg.Start >= end {
				break
			}
			if rg.Stop != "" && rg.Stop <= start {
				continue
			}
			if rg.Start < start {
				rg.Start = start
			}
			if end != "" && (rg.Stop == "" || rg.Stop > end) {
				rg.Stop = end
			}
			want = append(want, rg)
		}
		before := append([]ScanRange(nil), ranges...)
		r := &Region{StartKey: start, endKey: end}
		got := collectRanges(r.ClipRanges(ScanRanges(ranges)))
		if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ClipRanges(%v) in [%q, %q) = %v, want %v", trial, before, start, end, got, want)
		}
		if !reflect.DeepEqual(ranges, before) {
			t.Fatalf("trial %d: ClipRanges wrote its input: %v, was %v", trial, ranges, before)
		}
	}
}
