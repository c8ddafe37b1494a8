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

func TestValidateScanRanges(t *testing.T) {
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
		if err := ValidateScanRanges(tc.ranges); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// scanModel is what a store must answer, built by the test from its own
// writes and sharing nothing with the store: per row, per timestamp, the last
// put written there and whether a delete was.
type scanModel map[string]map[int64]*modelVersion

type modelVersion struct {
	value   []byte
	deleted bool
}

func (m scanModel) at(row string, ts int64) *modelVersion {
	if m[row] == nil {
		m[row] = map[int64]*modelVersion{}
	}
	if m[row][ts] == nil {
		m[row][ts] = &modelVersion{}
	}
	return m[row][ts]
}

// scan resolves qualifier q of every row in the ranges as of asOf (0 = no
// bound): the newest timestamp at or below asOf decides the row, a delete
// there hides it (and masks a put at the same timestamp), otherwise the last
// value put there is the row's.
func (m scanModel) scan(ranges []ScanRange, asOf int64, q string) []RowResult {
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
			newest := int64(-1)
			for ts := range m[row] {
				if (asOf == 0 || ts <= asOf) && ts > newest {
					newest = ts
				}
			}
			if v := m[row][newest]; v != nil && !v.deleted {
				out = append(out, RowResult{Row: row, Cells: []Cell{{Row: row, Qualifier: q, Timestamp: newest, Value: v.value}}})
			}
		}
	}
	return out
}

// TestMultiScanEquivalenceRandomized is the scan kernel's correctness
// property: MultiScanCtx over K sorted disjoint ranges, and ScanCtx over each
// of them in turn, must both deliver exactly the rows the model of the test's
// own writes holds — across random data spread over memtable and segments,
// with deletes, version history and same-timestamp rewrites.
func TestMultiScanEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		s := newTestStore(t)
		model := scanModel{}
		nRows := 50 + rng.Intn(400)
		for i := 0; i < nRows; i++ {
			row := fmt.Sprintf("r%05d", rng.Intn(600))
			ts := int64(1 + rng.Intn(5))
			switch rng.Intn(10) {
			case 0:
				if err := s.ApplyBatch([]Cell{{Row: row, Qualifier: "q", Timestamp: ts, Tombstone: true}}); err != nil {
					t.Fatal(err)
				}
				model.at(row, ts).deleted = true
			default:
				value := []byte(fmt.Sprintf("%s@%d#%d", row, ts, i))
				if err := s.ApplyBatch([]Cell{{Row: row, Qualifier: "q", Timestamp: ts, Value: value}}); err != nil {
					t.Fatal(err)
				}
				model.at(row, ts).value = value
			}
			if rng.Intn(60) == 0 {
				if err := flushNow(s); err != nil {
					t.Fatal(err)
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
		want := model.scan(ranges, asOf, "q")
		var multi []RowResult
		err := s.MultiScanCtx(context.Background(), ranges, asOf, func(res RowResult) bool {
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

// TestMultiScanSegmentPruning verifies segments disjoint from every range
// are skipped from the iterator stack — the range-scan analogue of bloom
// filter point-read pruning.
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
		_, pruned := s.multiScanIteratorsLocked(tc.ranges, nil, &blockScanStats{})
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

// TestSegmentMetadataSurvivesFlushCompactReplay is the satellite guarding
// the pruning metadata: min/max row keys and bloom filters must be rebuilt
// identically by memtable flush, compaction and WAL replay.
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
			if seg.bloom == nil {
				t.Fatalf("segment %d missing bloom filter", seg.id)
			}
		}
		if min != wantMin || max != wantMax {
			t.Errorf("segment bounds [%q, %q], want [%q, %q]", min, max, wantMin, wantMax)
		}
		for _, row := range rows {
			found := false
			for _, seg := range s.segments {
				if seg.mayContainRow(row) {
					found = true
				}
			}
			if !found {
				t.Errorf("bloom filters deny stored row %q", row)
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
		res, err := reopened.Get(rows[7])
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := res.Get("q"); !ok || string(v) != rows[7] {
			t.Errorf("replayed Get(%q) = %q/%v", rows[7], v, ok)
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
		got := r.ClipRanges(ranges)
		if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ClipRanges(%v) in [%q, %q) = %v, want %v", trial, before, start, end, got, want)
		}
		if !reflect.DeepEqual(ranges, before) {
			t.Fatalf("trial %d: ClipRanges wrote its input: %v, was %v", trial, ranges, before)
		}
	}
}
