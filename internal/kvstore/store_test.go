package kvstore

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func newTestStore(t testing.TB) *Store {
	t.Helper()
	opts := DefaultStoreOptions()
	opts.FlushThresholdBytes = 1 << 30 // manual flushes only
	s, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// flushNow hands the memtable to the background flusher and waits until the
// flush backlog is drained and background maintenance is idle, so the cells
// written so far sit in segments.
func flushNow(s *Store) error {
	s.mu.Lock()
	if s.mem.len() > 0 {
		s.rotateLocked()
	}
	s.mu.Unlock()
	return s.WaitMaintenance()
}

// scanStore is Table.ScanCtx's one-range scan over a single store.
func scanStore(s *Store, opts ScanOptions, fn func(RowResult) bool) error {
	return s.MultiScanCtx(context.Background(), opts.oneRange(), opts.AsOf, fn)
}

// rowScanner is the read Store and Table share.
type rowScanner interface {
	MultiScanCtx(ctx context.Context, ranges []ScanRange, asOf int64, fn func(RowResult) bool) error
}

// readRow reads one row as of asOf (0 = no bound) through the one-row range
// [row, row+"\x00"): the row's live cells, none when it has no live cell.
func readRow(r rowScanner, row string, asOf int64) (RowResult, error) {
	res := RowResult{Row: row}
	err := r.MultiScanCtx(context.Background(), []ScanRange{{Start: row, Stop: row + "\x00"}}, asOf, func(got RowResult) bool {
		res.Cells = append([]Cell(nil), got.Cells...)
		return false
	})
	return res, err
}

func TestStorePutGet(t *testing.T) {
	s := newTestStore(t)
	if err := s.ApplyBatch([]Cell{{Row: "u1", Qualifier: "name", Timestamp: 10, Value: []byte("alice")}}); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch([]Cell{{Row: "u1", Qualifier: "city", Timestamp: 10, Value: []byte("athens")}}); err != nil {
		t.Fatal(err)
	}
	res, err := readRow(s, "u1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(res.Cells))
	}
	if v, ok := res.Get("name"); !ok || string(v) != "alice" {
		t.Errorf("name = %q/%v", v, ok)
	}
	if v, ok := res.Get("city"); !ok || string(v) != "athens" {
		t.Errorf("city = %q/%v", v, ok)
	}
	if _, ok := res.Get("missing"); ok {
		t.Error("missing qualifier must not be found")
	}
}

func TestStoreNewestVersionWins(t *testing.T) {
	s := newTestStore(t)
	for ts := int64(1); ts <= 5; ts++ {
		if err := s.ApplyBatch([]Cell{{Row: "u1", Qualifier: "q", Timestamp: ts, Value: []byte(fmt.Sprintf("v%d", ts))}}); err != nil {
			t.Fatal(err)
		}
	}
	res, _ := readRow(s, "u1", 0)
	if v, _ := res.Get("q"); string(v) != "v5" {
		t.Errorf("newest version = %q, want v5", v)
	}
}

func TestStoreGetAtSnapshot(t *testing.T) {
	s := newTestStore(t)
	for ts := int64(1); ts <= 5; ts++ {
		if err := s.ApplyBatch([]Cell{{Row: "u1", Qualifier: "q", Timestamp: ts * 10, Value: []byte(fmt.Sprintf("v%d", ts))}}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := readRow(s, "u1", 35)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Get("q"); string(v) != "v3" {
		t.Errorf("snapshot at 35 = %q, want v3", v)
	}
	res, _ = readRow(s, "u1", 5)
	if !res.Empty() {
		t.Errorf("snapshot before first write must be empty, got %v", res.Cells)
	}
}

func TestStoreDeleteMasksOlderVersions(t *testing.T) {
	s := newTestStore(t)
	if err := s.ApplyBatch([]Cell{{Row: "u1", Qualifier: "q", Timestamp: 10, Value: []byte("old")}}); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch([]Cell{{Row: "u1", Qualifier: "q", Timestamp: 20, Tombstone: true}}); err != nil {
		t.Fatal(err)
	}
	res, _ := readRow(s, "u1", 0)
	if !res.Empty() {
		t.Errorf("deleted row should be empty, got %v", res.Cells)
	}
	// A put after the tombstone resurrects the qualifier.
	if err := s.ApplyBatch([]Cell{{Row: "u1", Qualifier: "q", Timestamp: 30, Value: []byte("new")}}); err != nil {
		t.Fatal(err)
	}
	res, _ = readRow(s, "u1", 0)
	if v, _ := res.Get("q"); string(v) != "new" {
		t.Errorf("post-delete put = %q, want new", v)
	}
	// Snapshot semantics: as of ts 15 the old value is still visible.
	res, _ = readRow(s, "u1", 15)
	if v, _ := res.Get("q"); string(v) != "old" {
		t.Errorf("snapshot before delete = %q, want old", v)
	}
}

func TestStoreDeleteAtSameTimestampWins(t *testing.T) {
	s := newTestStore(t)
	if err := s.ApplyBatch([]Cell{{Row: "u1", Qualifier: "q", Timestamp: 10, Value: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch([]Cell{{Row: "u1", Qualifier: "q", Timestamp: 10, Tombstone: true}}); err != nil {
		t.Fatal(err)
	}
	res, _ := readRow(s, "u1", 0)
	if !res.Empty() {
		t.Error("tombstone at equal timestamp must mask the put")
	}
}

func TestStoreRewriteSameTimestampReplaces(t *testing.T) {
	s := newTestStore(t)
	if err := s.ApplyBatch([]Cell{{Row: "u1", Qualifier: "q", Timestamp: 10, Value: []byte("a")}}); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch([]Cell{{Row: "u1", Qualifier: "q", Timestamp: 10, Value: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	res, _ := readRow(s, "u1", 0)
	if v, _ := res.Get("q"); string(v) != "b" {
		t.Errorf("rewrite at same ts = %q, want b", v)
	}
}

func TestStoreFlushAndReadAcrossSegments(t *testing.T) {
	s := newTestStore(t)
	if err := s.ApplyBatch([]Cell{{Row: "u1", Qualifier: "q", Timestamp: 10, Value: []byte("v1")}}); err != nil {
		t.Fatal(err)
	}
	if err := flushNow(s); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch([]Cell{{Row: "u1", Qualifier: "q", Timestamp: 20, Value: []byte("v2")}}); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch([]Cell{{Row: "u2", Qualifier: "q", Timestamp: 5, Value: []byte("other")}}); err != nil {
		t.Fatal(err)
	}
	res, _ := readRow(s, "u1", 0)
	if v, _ := res.Get("q"); string(v) != "v2" {
		t.Errorf("memtable must shadow segment: got %q", v)
	}
	res, _ = readRow(s, "u1", 15)
	if v, _ := res.Get("q"); string(v) != "v1" {
		t.Errorf("older segment version must be visible at ts 15: got %q", v)
	}
	st := s.Stats()
	if st.Flushes != 1 || st.Segments != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStoreCompactionPreservesView(t *testing.T) {
	opts := DefaultStoreOptions()
	opts.FlushThresholdBytes = 1 << 30
	opts.CompactionTrigger = 3
	s, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch([]Cell{{Row: "a", Qualifier: "q", Timestamp: 1, Value: []byte("a1")}}); err != nil {
		t.Fatal(err)
	}
	if err := flushNow(s); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch([]Cell{{Row: "a", Qualifier: "q", Timestamp: 2, Value: []byte("a2")}}); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch([]Cell{{Row: "b", Qualifier: "q", Timestamp: 3, Tombstone: true}}); err != nil {
		t.Fatal(err)
	}
	if err := flushNow(s); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch([]Cell{{Row: "b", Qualifier: "q", Timestamp: 1, Value: []byte("b1")}}); err != nil {
		t.Fatal(err)
	}
	// The third same-tier segment sets off the background merge.
	if err := flushNow(s); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.BackgroundCompactions != 1 || st.Segments != 1 || st.MemtableCells != 0 {
		t.Fatalf("after compaction stats = %+v", st)
	}
	res, _ := readRow(s, "a", 0)
	if v, _ := res.Get("q"); string(v) != "a2" {
		t.Errorf("a = %q, want a2", v)
	}
	res, _ = readRow(s, "b", 0)
	if !res.Empty() {
		t.Errorf("b must stay deleted after compaction, got %v", res.Cells)
	}
}

func TestStoreAutoFlushAndCompact(t *testing.T) {
	opts := DefaultStoreOptions()
	opts.FlushThresholdBytes = 512
	opts.CompactionTrigger = 3
	s, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := s.ApplyBatch([]Cell{{Row: fmt.Sprintf("row-%04d", i), Qualifier: "q", Timestamp: int64(i + 1), Value: []byte("0123456789abcdef")}}); err != nil {
			t.Fatal(err)
		}
	}
	// Flushes and compactions now run behind the write path; quiesce before
	// asserting on them.
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Flushes == 0 {
		t.Error("auto flush never triggered")
	}
	if st.BackgroundCompactions == 0 {
		t.Error("background compaction never triggered")
	}
	if st.ImmutableMemtables != 0 {
		t.Errorf("flush backlog not drained: %d immutable memtables", st.ImmutableMemtables)
	}
	if st.CompactionDebtBytes != 0 {
		t.Errorf("compaction debt not drained: %d bytes", st.CompactionDebtBytes)
	}
	// All rows must remain readable.
	count := 0
	err = s.MultiScanCtx(context.Background(), []ScanRange{{}}, 0, func(r RowResult) bool { count++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if count != 500 {
		t.Errorf("scan found %d rows, want 500", count)
	}
}

func TestStoreScanRangeAndLimit(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 10; i++ {
		if err := s.ApplyBatch([]Cell{{Row: fmt.Sprintf("row-%02d", i), Qualifier: "q", Timestamp: 1, Value: []byte{byte(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	err := scanStore(s, ScanOptions{StartRow: "row-03", StopRow: "row-07"}, func(r RowResult) bool {
		got = append(got, r.Row)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"row-03", "row-04", "row-05", "row-06"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("range scan = %v, want %v", got, want)
	}

	got = nil
	err = s.MultiScanCtx(context.Background(), []ScanRange{{}}, 0, func(r RowResult) bool {
		got = append(got, r.Row)
		return len(got) < 2 // early stop
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("early-stopped scan returned %d rows, want 2", len(got))
	}
}

func TestStoreRejectsEmptyRow(t *testing.T) {
	s := newTestStore(t)
	if err := s.ApplyBatch([]Cell{{Row: "", Qualifier: "q", Timestamp: 1, Value: nil}}); err == nil {
		t.Error("empty row put must fail")
	}
	if err := s.MultiScanCtx(context.Background(), []ScanRange{{}}, 0, nil); err == nil {
		t.Error("nil scan callback must fail")
	}
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(StoreOptions{FlushThresholdBytes: 0, CompactionTrigger: 4}); err == nil {
		t.Error("zero flush threshold must fail")
	}
	if _, err := NewStore(StoreOptions{FlushThresholdBytes: 1024, CompactionTrigger: 1}); err == nil {
		t.Error("compaction trigger 1 must fail")
	}
}

// modelOp is one randomized operation for the model-based test.
type modelOp struct {
	row, qual string
	ts        int64
	del       bool
	value     byte
}

// TestStoreMatchesModel replays a random operation sequence against both the
// store and a simple map-based model, checking every row after every flush
// boundary choice. This is the core LSM correctness property test.
func TestStoreMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		opts := DefaultStoreOptions()
		opts.FlushThresholdBytes = 1 << 30
		opts.CompactionTrigger = 3
		s, err := NewStore(opts)
		if err != nil {
			t.Fatal(err)
		}
		// model[row][qual] = list of (ts, del, value), latest decision wins.
		type ver struct {
			ts  int64
			del bool
			val byte
		}
		model := map[string]map[string][]ver{}

		nOps := 300
		rows := []string{"a", "b", "c", "d", "e"}
		quals := []string{"q1", "q2"}
		for op := 0; op < nOps; op++ {
			row := rows[rng.Intn(len(rows))]
			qual := quals[rng.Intn(len(quals))]
			ts := int64(rng.Intn(50) + 1)
			del := rng.Intn(5) == 0
			val := byte(rng.Intn(256))
			if del {
				if err := s.ApplyBatch([]Cell{{Row: row, Qualifier: qual, Timestamp: ts, Tombstone: true}}); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := s.ApplyBatch([]Cell{{Row: row, Qualifier: qual, Timestamp: ts, Value: []byte{val}}}); err != nil {
					t.Fatal(err)
				}
			}
			if model[row] == nil {
				model[row] = map[string][]ver{}
			}
			// Replace same-(ts,del) entry, else append.
			replaced := false
			for i, v := range model[row][qual] {
				if v.ts == ts && v.del == del {
					model[row][qual][i].val = val
					replaced = true
					break
				}
			}
			if !replaced {
				model[row][qual] = append(model[row][qual], ver{ts, del, val})
			}
			// Occasionally flush mid-stream; every third flush sets off a
			// background merge.
			if rng.Intn(10) == 0 {
				if err := flushNow(s); err != nil {
					t.Fatal(err)
				}
			}
		}

		// Verify every row at several asOf horizons.
		for _, row := range rows {
			for _, asOf := range []int64{5, 17, 25, 49, 1 << 60} {
				res, err := readRow(s, row, asOf)
				if err != nil {
					t.Fatal(err)
				}
				got := map[string]byte{}
				for _, c := range res.Cells {
					got[c.Qualifier] = c.Value[0]
				}
				want := map[string]byte{}
				for qual, vers := range model[row] {
					// Decide: among versions with ts <= asOf pick max ts;
					// tombstone beats put at equal ts.
					var best *ver
					for i := range vers {
						v := &vers[i]
						if v.ts > asOf {
							continue
						}
						if best == nil || v.ts > best.ts || (v.ts == best.ts && v.del && !best.del) {
							best = v
						}
					}
					if best != nil && !best.del {
						want[qual] = best.val
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d row %s asOf %d: store=%v model=%v", trial, row, asOf, got, want)
				}
			}
		}
	}
}

// TestScanOrderIsSorted is a quick-check property: scanned rows always come
// back in strictly increasing key order regardless of insertion order.
func TestScanOrderIsSorted(t *testing.T) {
	f := func(keys []string) bool {
		opts := DefaultStoreOptions()
		opts.FlushThresholdBytes = 4096
		s, err := NewStore(opts)
		if err != nil {
			return false
		}
		for i, k := range keys {
			if k == "" {
				continue
			}
			if err := s.ApplyBatch([]Cell{{Row: k, Qualifier: "q", Timestamp: int64(i + 1), Value: []byte{1}}}); err != nil {
				return false
			}
		}
		var scanned []string
		if err := s.MultiScanCtx(context.Background(), []ScanRange{{}}, 0, func(r RowResult) bool {
			scanned = append(scanned, r.Row)
			return true
		}); err != nil {
			return false
		}
		if !sort.StringsAreSorted(scanned) {
			return false
		}
		// And the set must equal the distinct non-empty keys.
		distinct := map[string]bool{}
		for _, k := range keys {
			if k != "" {
				distinct[k] = true
			}
		}
		return len(distinct) == len(scanned)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStoreConcurrentReadersAndWriters(t *testing.T) {
	opts := DefaultStoreOptions()
	opts.FlushThresholdBytes = 2048
	s, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for w := 0; w < 2; w++ {
		w := w
		go func() {
			for i := 0; i < 500; i++ {
				if err := s.ApplyBatch([]Cell{{Row: fmt.Sprintf("w%d-row-%03d", w, i), Qualifier: "q", Timestamp: int64(i + 1), Value: []byte("value")}}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for r := 0; r < 2; r++ {
		go func() {
			for i := 0; i < 200; i++ {
				if _, err := readRow(s, "w0-row-001", 0); err != nil {
					done <- err
					return
				}
				n := 0
				if err := scanStore(s, ScanOptions{}, func(RowResult) bool { n++; return n < 10 }); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	if err := s.MultiScanCtx(context.Background(), []ScanRange{{}}, 0, func(RowResult) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 1000 {
		t.Errorf("found %d rows, want 1000", count)
	}
}

func BenchmarkStoreScanUserRange(b *testing.B) {
	opts := DefaultStoreOptions()
	s, err := NewStore(opts)
	if err != nil {
		b.Fatal(err)
	}
	// 500 users × 17 visits each: one friend's scan range is 17 rows.
	value := []byte(`{"grade":4.2}`)
	for u := 0; u < 500; u++ {
		for v := 0; v < 17; v++ {
			key := fmt.Sprintf("u%012d|t%013d|%06d", u, v*1000, v)
			if err := s.ApplyBatch([]Cell{{Row: key, Qualifier: "v", Timestamp: int64(v + 1), Value: value}}); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := flushNow(s); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := i % 500
		start := fmt.Sprintf("u%012d|", u)
		stop := fmt.Sprintf("u%012d|", u+1)
		rows := 0
		err := scanStore(s, ScanOptions{StartRow: start, StopRow: stop}, func(RowResult) bool {
			rows++
			return true
		})
		if err != nil || rows != 17 {
			b.Fatalf("scan: %v rows=%d", err, rows)
		}
	}
}
