package kvstore

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// flatIterator is the reference flat-slice cell source the seed store used:
// the property tests below require the blocked segment stack to be
// byte-identical to resolution over this.
type flatIterator struct {
	cells []Cell
	idx   int
}

func (it *flatIterator) valid() bool { return it.idx < len(it.cells) }
func (it *flatIterator) cell() *Cell { return &it.cells[it.idx] }
func (it *flatIterator) next()       { it.idx++ }
func (it *flatIterator) seek(row []byte) {
	if it.idx >= len(it.cells) {
		return
	}
	it.idx += sort.Search(len(it.cells)-it.idx, func(i int) bool {
		return it.cells[it.idx+i].Row >= string(row)
	})
}

// genUniqueCells builds n random cells with unique (row, qualifier,
// timestamp) keys, ~10% tombstones, drawn from a small row domain so rows
// collect several qualifiers and versions.
func genUniqueCells(rng *rand.Rand, n int) []Cell {
	seen := make(map[string]bool)
	var cells []Cell
	for len(cells) < n {
		row := fmt.Sprintf("u%04d", rng.Intn(n/3+1))
		qual := fmt.Sprintf("q%d", rng.Intn(4))
		ts := int64(rng.Intn(100) + 1)
		key := fmt.Sprintf("%s/%s/%d", row, qual, ts)
		if seen[key] {
			continue
		}
		seen[key] = true
		c := Cell{Row: row, Qualifier: qual, Timestamp: ts}
		if rng.Intn(10) == 0 {
			c.Tombstone = true
		} else {
			c.Value = []byte(fmt.Sprintf("val-%s-%s-%d-%s", row, qual, ts, string(bytes.Repeat([]byte{'x'}, rng.Intn(40)))))
		}
		cells = append(cells, c)
	}
	return cells
}

// genRanges builds sorted, non-overlapping random ranges over the u%04d
// row domain.
func genRanges(rng *rand.Rand, n int) []ScanRange {
	bounds := make([]int, 2*n)
	for i := range bounds {
		bounds[i] = rng.Intn(4000)
	}
	sort.Ints(bounds)
	var ranges []ScanRange
	for i := 0; i+1 < len(bounds); i += 2 {
		if bounds[i] == bounds[i+1] {
			continue
		}
		r := ScanRange{Start: fmt.Sprintf("u%04d", bounds[i]), Stop: fmt.Sprintf("u%04d", bounds[i+1])}
		if len(ranges) > 0 && ranges[len(ranges)-1].Stop >= r.Start {
			continue
		}
		ranges = append(ranges, r)
	}
	return ranges
}

// referenceMultiScan resolves the ranges over a flat sorted cell slice with
// the production resolution logic — the oracle the blocked stores must
// match exactly.
func referenceMultiScan(sorted []Cell, ranges []ScanRange, asOf int64) []RowResult {
	if asOf == 0 {
		asOf = int64(1) << 62
	}
	merged := newMergeIterator([]cellIterator{&flatIterator{cells: sorted}})
	var out []RowResult
	var buf []Cell
	for _, rg := range ranges {
		merged.seekRange([]byte(rg.Start), []byte(rg.Stop))
		for cells := merged.nextRow(&buf); cells != nil; cells = merged.nextRow(&buf) {
			res := RowResult{Row: cells[0].Row, Cells: resolveRow(cells, asOf, nil)}
			if !res.Empty() {
				out = append(out, res)
			}
		}
	}
	return out
}

func rowResultsEqual(a, b []RowResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Row != b[i].Row || len(a[i].Cells) != len(b[i].Cells) {
			return false
		}
		for j := range a[i].Cells {
			x, y := a[i].Cells[j], b[i].Cells[j]
			if x.Row != y.Row || x.Qualifier != y.Qualifier || x.Timestamp != y.Timestamp ||
				x.Tombstone != y.Tombstone || !bytes.Equal(x.Value, y.Value) {
				return false
			}
		}
	}
	return true
}

// TestBlockedSegmentMatchesFlatReference is the property test: across
// random datasets and block sizes (down to 1-cell blocks), the blocked
// store's MultiScanCtx, full Scan and point reads are identical to
// flat-slice resolution.
func TestBlockedSegmentMatchesFlatReference(t *testing.T) {
	blockSizes := []int{1, 64, 700, DefaultBlockSize}
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		cells := genUniqueCells(rng, 600)
		sorted := append([]Cell(nil), cells...)
		sort.Slice(sorted, func(i, j int) bool { return compareCells(&sorted[i], &sorted[j]) < 0 })
		ranges := genRanges(rng, 6)
		asOf := int64(rng.Intn(120))
		wantMulti := referenceMultiScan(sorted, ranges, asOf)
		wantFull := referenceMultiScan(sorted, []ScanRange{{}}, 0)

		for _, bs := range blockSizes {
			name := fmt.Sprintf("trial=%d block=%d", trial, bs)
			opts := DefaultStoreOptions()
			opts.FlushThresholdBytes = 1 << 30
			opts.BlockSizeBytes = bs
			// A tiny cache forces constant eviction and re-decode, so
			// both the hit and miss paths are exercised.
			opts.BlockCache = NewBlockCache(1 << 14)
			s, err := NewStore(opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, c := range cells {
				if err := s.ApplyBatch([]Cell{c}); err != nil {
					t.Fatalf("%s: apply: %v", name, err)
				}
				if i%137 == 136 {
					if err := flushNow(s); err != nil {
						t.Fatalf("%s: flush: %v", name, err)
					}
				}
			}
			if err := flushNow(s); err != nil {
				t.Fatalf("%s: flush: %v", name, err)
			}

			var gotMulti []RowResult
			err = s.MultiScanCtx(context.Background(), ranges, asOf, func(res RowResult) bool {
				cp := RowResult{Row: res.Row, Cells: append([]Cell(nil), res.Cells...)}
				gotMulti = append(gotMulti, cp)
				return true
			})
			if err != nil {
				t.Fatalf("%s: multiscan: %v", name, err)
			}
			if !rowResultsEqual(gotMulti, wantMulti) {
				t.Fatalf("%s: multiscan diverged from flat reference (%d vs %d rows)", name, len(gotMulti), len(wantMulti))
			}

			var gotFull []RowResult
			if err := s.MultiScanCtx(context.Background(), []ScanRange{{}}, 0, func(res RowResult) bool {
				gotFull = append(gotFull, copyRow(res))
				return true
			}); err != nil {
				t.Fatalf("%s: scan: %v", name, err)
			}
			if !rowResultsEqual(gotFull, wantFull) {
				t.Fatalf("%s: full scan diverged from flat reference (%d vs %d rows)", name, len(gotFull), len(wantFull))
			}

			// One-row reads, present and absent rows.
			for i := 0; i < 30; i++ {
				row := fmt.Sprintf("u%04d", rng.Intn(300))
				got, err := readRow(s, row, asOf)
				if err != nil {
					t.Fatalf("%s: read %s: %v", name, row, err)
				}
				want := referenceMultiScan(sorted, []ScanRange{{Start: row, Stop: row + "\x00"}}, asOf)
				wantRes := RowResult{Row: row}
				if len(want) == 1 {
					wantRes = want[0]
				}
				if !rowResultsEqual([]RowResult{got}, []RowResult{wantRes}) {
					t.Fatalf("%s: readRow(%s) diverged from flat reference", name, row)
				}
			}
		}
	}
}

// TestBlockedSegmentAfterCompaction re-checks equivalence after a major
// compaction rewrote everything into one blocked segment.
func TestBlockedSegmentAfterCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cells := genUniqueCells(rng, 400)
	sorted := append([]Cell(nil), cells...)
	sort.Slice(sorted, func(i, j int) bool { return compareCells(&sorted[i], &sorted[j]) < 0 })

	opts := DefaultStoreOptions()
	opts.FlushThresholdBytes = 1 << 30
	opts.BlockSizeBytes = 128
	opts.CompactionTrigger = 2
	s, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if err := s.ApplyBatch([]Cell{c}); err != nil {
			t.Fatal(err)
		}
		if i%90 == 89 {
			if err := flushNow(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.Stats().BackgroundCompactions == 0 {
		t.Fatal("no background compaction merged the flushed segments")
	}
	// A merged segment keeps tombstones and masked versions; the reference
	// resolution (which hides them) must still match for live reads.
	want := referenceMultiScan(sorted, []ScanRange{{}}, 0)
	var got []RowResult
	if err := s.MultiScanCtx(context.Background(), []ScanRange{{}}, 0, func(res RowResult) bool {
		got = append(got, copyRow(res))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !rowResultsEqual(got, want) {
		t.Fatalf("post-compaction scan diverged (%d vs %d rows)", len(got), len(want))
	}
}

// TestEmptyAndSingleRowSegments guards the degenerate constructions: a
// compaction that drops every cell must yield a harmless empty segment, and
// a single-row segment must build a working one-entry min/max.
func TestEmptyAndSingleRowSegments(t *testing.T) {
	empty, err := newSegment(1, nil, defaultSegmentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if empty.len() != 0 || len(empty.blocks) != 0 {
		t.Fatalf("empty segment has %d cells, %d blocks", empty.len(), len(empty.blocks))
	}
	if empty.overlapsRanges(ScanRanges{{}}, new([]byte)) {
		t.Fatal("empty segment overlaps the unbounded range")
	}
	it := empty.iterator(nil, &blockScanStats{})
	if it.valid() {
		t.Fatal("empty segment iterator is valid")
	}

	single, err := newSegment(2, []Cell{{Row: "only", Qualifier: "q", Timestamp: 1, Value: []byte("v")}}, defaultSegmentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if single.minRow != "only" || single.maxRow != "only" || len(single.blocks) != 1 {
		t.Fatalf("single-row segment metadata: min=%q max=%q blocks=%d", single.minRow, single.maxRow, len(single.blocks))
	}
	it = single.iterator(nil, &blockScanStats{})
	if !it.valid() || it.cell().Row != "only" {
		t.Fatal("single-row segment iterator broken")
	}
	it.next()
	if it.valid() {
		t.Fatal("single-row iterator did not exhaust")
	}
}

// TestBlockPruningCounters checks that scans over disjoint ranges skip
// blocks without decoding them and that the counters see it.
func TestBlockPruningCounters(t *testing.T) {
	opts := DefaultStoreOptions()
	opts.FlushThresholdBytes = 1 << 30
	opts.BlockSizeBytes = 256
	s, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := s.ApplyBatch([]Cell{{Row: fmt.Sprintf("r%05d", i), Qualifier: "q", Timestamp: 1, Value: []byte("0123456789abcdef0123456789abcdef")}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := flushNow(s); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SegmentBlocks < 10 {
		t.Fatalf("only %d blocks; the pruning assertion needs more", st.SegmentBlocks)
	}
	var bs blockScanStats
	s.mu.RLock()
	its, _ := s.iteratorsLocked(ScanRanges{{Start: "r00490", Stop: "r00492"}}, []byte("r00490"), &bs, new([]byte))
	merged := newMergeIterator(its)
	rows := 0
	for merged.valid() && merged.cell().Row < "r00492" {
		rows++
		merged.next()
	}
	s.mu.RUnlock()
	if rows != 2 {
		t.Fatalf("pruned scan saw %d cells, want 2", rows)
	}
	if bs.skipped == 0 {
		t.Fatalf("no blocks skipped on a far-end range probe: %+v", bs)
	}
	if bs.decoded > 2 {
		t.Fatalf("decoded %d blocks for a 2-row scan at the segment tail", bs.decoded)
	}
}

// TestSegmentResidentSmallerThanLogical checks the point of the format:
// rows that share a key prefix are resident in fewer bytes than their flat
// footprint. The bound pins the row-key sharing itself. On this data the
// blocks hold ≈ 0.86 of the logical bytes with sharing and ≈ 0.95 without
// it, so 0.9 separates the two.
func TestSegmentResidentSmallerThanLogical(t *testing.T) {
	opts := DefaultStoreOptions()
	opts.FlushThresholdBytes = 1 << 30
	s, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		row := fmt.Sprintf("user-%06d", i/4)
		val := []byte(fmt.Sprintf("poi=%06d grade=%d network=facebook padding=%s", i%500, i%5, bytes.Repeat([]byte{'x'}, 48)))
		if err := s.ApplyBatch([]Cell{{Row: row, Qualifier: fmt.Sprintf("q%d", i%4), Timestamp: int64(i + 1), Value: val}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := flushNow(s); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SegmentResidentBytes == 0 || st.SegmentLogicalBytes == 0 {
		t.Fatalf("missing byte accounting: %+v", st)
	}
	t.Logf("resident %d of %d logical bytes", st.SegmentResidentBytes, st.SegmentLogicalBytes)
	if st.SegmentResidentBytes*10 > st.SegmentLogicalBytes*9 {
		t.Fatalf("resident %d is more than 0.9 of logical %d", st.SegmentResidentBytes, st.SegmentLogicalBytes)
	}
}
