package kvstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeLog opens the log at path and appends each cell as a group of its own
// — what a solo writer produces: per-put records.
func writeLog(t *testing.T, path string, cells []Cell) *GroupCommitWAL {
	t.Helper()
	w, err := OpenGroupCommitWAL(path, SyncOS)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if err := w.AppendBatch([]Cell{c}); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestFileWALRoundTrip: what is appended to the log file replays cell for
// cell (tombstones and nil values included); Close is idempotent and ends
// appends.
func TestFileWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.wal")
	cells := []Cell{
		{Row: "u1", Qualifier: "name", Timestamp: 10, Value: []byte("alice")},
		{Row: "u2", Qualifier: "city", Timestamp: 20, Value: []byte("athens")},
		{Row: "u1", Qualifier: "name", Timestamp: 30, Tombstone: true},
		{Row: "u3", Qualifier: "empty", Timestamp: 40}, // nil value
	}
	w := writeLog(t, path, cells)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close should be a no-op, got %v", err)
	}
	if err := w.AppendBatch([]Cell{{Row: "x", Qualifier: "q"}}); err == nil {
		t.Error("append after close must fail")
	}

	var got []Cell
	if err := ReplayWAL(path, func(c Cell) error { got = append(got, c); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cells) {
		t.Errorf("replay = %+v, want %+v", got, cells)
	}
}

func TestReplayWALMissingFile(t *testing.T) {
	if err := ReplayWAL(filepath.Join(t.TempDir(), "nope.wal"), func(Cell) error { return nil }); err != nil {
		t.Errorf("missing wal should replay as empty, got %v", err)
	}
}

func TestReplayWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.wal")
	var cells []Cell
	for i := 0; i < 10; i++ {
		cells = append(cells, Cell{Row: "r", Qualifier: "q", Timestamp: int64(i + 1), Value: []byte("0123456789")})
	}
	if err := writeLog(t, path, cells).Close(); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-record to simulate a crash during the last write.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := ReplayWAL(path, func(Cell) error { count++; return nil }); err != nil {
		t.Fatalf("torn tail must replay cleanly, got %v", err)
	}
	if count != 9 {
		t.Errorf("replayed %d records, want 9", count)
	}
}

func TestReplayWALMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.wal")
	var cells []Cell
	for i := 0; i < 5; i++ {
		cells = append(cells, Cell{Row: "r", Qualifier: "q", Timestamp: int64(i + 1), Value: []byte("0123456789")})
	}
	if err := writeLog(t, path, cells).Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the file.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ReplayWAL(path, func(Cell) error { return nil }); err == nil {
		t.Error("mid-log corruption must be reported")
	}
}

func TestDurableTableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "visits.wal")
	opts := DefaultStoreOptions()

	// First life: write across regions, delete one row, split a region.
	tbl, err := OpenDurableTable("visits", []string{"m"}, 2, opts, path)
	if err != nil {
		t.Fatal(err)
	}
	for c := byte('a'); c <= 'z'; c++ {
		if err := tbl.Put(string(c), "q", 1, []byte("v-"+string(c))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.PutBatch([]Cell{{Row: "d", Qualifier: "q", Timestamp: 2, Tombstone: true}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SplitRegion("t"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Put("zz", "q", 3, []byte("post-split")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Errorf("double close must be a no-op: %v", err)
	}

	// Second life: different pre-splits — replay must still route right.
	tbl2, err := OpenDurableTable("visits", []string{"h", "q"}, 4, opts, path)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl2.Close()
	count := 0
	if err := tbl2.Scan(ScanOptions{}, func(r RowResult) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 26 { // 26 letters - deleted "d" + "zz"
		t.Errorf("recovered %d rows, want 26", count)
	}
	res, _ := readRow(tbl2, "d", 0)
	if !res.Empty() {
		t.Error("deleted row resurrected after recovery")
	}
	res, _ = readRow(tbl2, "zz", 0)
	if v, _ := res.Get("q"); string(v) != "post-split" {
		t.Errorf("post-split row = %q", v)
	}
	// Writes after recovery keep appending.
	if err := tbl2.Put("recovered", "q", 9, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tbl2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableTableTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	tbl, err := OpenDurableTable("t", nil, 1, DefaultStoreOptions(), path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tbl.Put(fmt.Sprintf("row-%03d", i), "q", int64(i+1), []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-9); err != nil {
		t.Fatal(err)
	}
	tbl2, err := OpenDurableTable("t", nil, 1, DefaultStoreOptions(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl2.Close()
	count := 0
	if err := tbl2.Scan(ScanOptions{}, func(RowResult) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 49 {
		t.Errorf("recovered %d rows after torn tail, want 49", count)
	}
}

func TestOpenDurableTableValidation(t *testing.T) {
	if _, err := OpenDurableTable("t", nil, 1, DefaultStoreOptions(), ""); err == nil {
		t.Error("empty WAL path must fail")
	}
}
