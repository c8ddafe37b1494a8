package kvstore

import (
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
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
	if err := RecoverWAL(path, SyncOS, func(c Cell) error { got = append(got, c); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cells) {
		t.Errorf("replay = %+v, want %+v", got, cells)
	}
}

func TestReplayWALMissingFile(t *testing.T) {
	if err := RecoverWAL(filepath.Join(t.TempDir(), "nope.wal"), SyncOS, func(Cell) error { return nil }); err != nil {
		t.Errorf("missing wal should replay as empty, got %v", err)
	}
}

// TestReplayWALTornTail: a log cut inside its last record replays the nine
// whole records before it and is cut back to their end.
func TestReplayWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.wal")
	var cells []Cell
	for i := 0; i < 10; i++ {
		cells = append(cells, Cell{Row: "r", Qualifier: "q", Timestamp: int64(i + 1), Value: []byte("0123456789")})
	}
	if err := writeLog(t, path, cells[:9]).Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeLog(t, path, cells[9:]).Close(); err != nil {
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
	if err := RecoverWAL(path, SyncOS, func(Cell) error { count++; return nil }); err != nil {
		t.Fatalf("torn tail must replay cleanly, got %v", err)
	}
	if count != 9 {
		t.Errorf("replayed %d records, want 9", count)
	}
	if cut, err := os.Stat(path); err != nil || cut.Size() != whole.Size() {
		t.Errorf("log is %d bytes after recovery (%v), want its %d whole-record bytes", cut.Size(), err, whole.Size())
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
	if err := RecoverWAL(path, SyncOS, func(Cell) error { return nil }); err == nil {
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

// TestDurableTableTornTail: a durable table reopened over a torn tail
// recovers the rows of its whole records, and a row put after the reopen
// survives the next one (it used to follow the torn bytes, and that boot
// failed mid-log).
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
	rows := func(tbl *Table) int {
		t.Helper()
		count := 0
		if err := tbl.Scan(ScanOptions{}, func(RowResult) bool { count++; return true }); err != nil {
			t.Fatal(err)
		}
		return count
	}
	tbl2, err := OpenDurableTable("t", nil, 1, DefaultStoreOptions(), path)
	if err != nil {
		t.Fatal(err)
	}
	if n := rows(tbl2); n != 49 {
		t.Errorf("recovered %d rows after torn tail, want 49", n)
	}
	if err := tbl2.Put("row-after", "q", 100, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := tbl2.Close(); err != nil {
		t.Fatal(err)
	}
	tbl3, err := OpenDurableTable("t", nil, 1, DefaultStoreOptions(), path)
	if err != nil {
		t.Fatalf("reopening after a put over the recovered tail: %v", err)
	}
	defer tbl3.Close()
	if n := rows(tbl3); n != 50 {
		t.Errorf("recovered %d rows after the second reopen, want 50", n)
	}
}

func TestOpenDurableTableValidation(t *testing.T) {
	if _, err := OpenDurableTable("t", nil, 1, DefaultStoreOptions(), ""); err == nil {
		t.Error("empty WAL path must fail")
	}
}

// TestWALRecordGolden pins the log's bytes: a per-put record and a batched
// record of the same cells, byte for byte as logs already on disk hold
// them, which replay must keep reading.
func TestWALRecordGolden(t *testing.T) {
	cells := []Cell{
		{Row: "u1", Qualifier: "v", Timestamp: 7, Value: []byte("ab")},
		{Row: "u2", Qualifier: "q", Timestamp: -1, Tombstone: true},
	}
	const want = "9ea623ea1600000002007531010076070000000000000000020000006162" +
		"a59dc692360000800200000016000000020075310100760700000000000000000200000061621400000002007532010071ffffffffffffffff0100000000"
	got := appendWALRecord(appendWALRecord(nil, cells[:1]), cells)
	if hex.EncodeToString(got) != want {
		t.Fatalf("wal records =\n%x\nwant\n%s", got, want)
	}
}

// TestWALAppendBatchAllocs pins the log's steady state: a 50-cell
// AppendBatch by a lone writer allocates its commit group and the group's
// channel, nothing else — the record is encoded into the log's own buffer.
func TestWALAppendBatchAllocs(t *testing.T) {
	w, err := OpenGroupCommitWAL(filepath.Join(t.TempDir(), "allocs.wal"), SyncOS)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cells := benchWriteCells(50)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.AllocsPerRun(100, func() {
		if err := w.AppendBatch(cells); err != nil {
			t.Fatal(err)
		}
	})
	if got != 2 {
		t.Fatalf("a 50-cell AppendBatch allocates %.1f times, want 2 (the group and its channel)", got)
	}
}

// TestDurableTableRefusesUnreplayableBatch: the log stores row and
// qualifier lengths in 16 bits, so a longer key would be acknowledged and
// then make the whole log unreplayable. Such a batch is refused before it
// joins a commit group: nothing of it is applied, and a reopen replays
// every write acknowledged before and after it.
func TestDurableTableRefusesUnreplayableBatch(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "table.wal")
	open := func() *Table {
		tbl, err := OpenDurableTable("visits", []string{"m"}, 2, DefaultStoreOptions(), walPath)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	visit := func(row string) Cell { return Cell{Row: row, Qualifier: "v", Timestamp: 1, Value: []byte(row)} }
	tbl := open()
	if err := tbl.PutBatch([]Cell{visit("a"), visit("p")}); err != nil {
		t.Fatal(err)
	}
	longQual := visit("q")
	longQual.Qualifier = strings.Repeat("q", math.MaxUint16+1)
	for name, batch := range map[string][]Cell{
		"row":       {visit("b"), visit(strings.Repeat("r", 70001))},
		"qualifier": {visit("c"), longQual},
	} {
		if err := tbl.PutBatch(batch); err == nil {
			t.Fatalf("%s: a batch the log cannot replay was acknowledged", name)
		}
	}
	if err := tbl.PutBatch([]Cell{visit("d"), visit(strings.Repeat("z", math.MaxUint16))}); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "d", "p", strings.Repeat("z", math.MaxUint16)}
	rows := func(tbl *Table) []string {
		var got []string
		if err := tbl.Scan(ScanOptions{}, func(r RowResult) bool { got = append(got, r.Row); return true }); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := rows(tbl); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows after the refused batches = %.20q, want %.20q", got, want)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	re := open()
	defer re.Close()
	if got := rows(re); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows after reopen = %.20q, want %.20q", got, want)
	}
}

// TestCheckWALBatchLimits: besides the key lengths, a call whose batch body
// would pass maxWALBody is refused (checked on lengths alone: the cells
// share one value). The cell-count limit is not exercised: a slice of more
// than maxWALBatchCells cells is 72 MiB.
func TestCheckWALBatchLimits(t *testing.T) {
	value := make([]byte, 1<<20)
	big := make([]Cell, maxWALBody>>20+1)
	for i := range big {
		big[i] = Cell{Row: "r", Qualifier: "v", Timestamp: int64(i), Value: value}
	}
	if _, err := checkWALBatch(big); err == nil {
		t.Fatal("a batch body over maxWALBody was accepted")
	}
	if _, err := checkWALBatch(big[:len(big)-2]); err != nil {
		t.Fatalf("a batch body under maxWALBody was refused: %v", err)
	}
}
