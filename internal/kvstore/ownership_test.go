package kvstore

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"modissense/internal/obs"
)

// TestDeliveredValuesAreNeverRewritten pins the read half of the
// value-ownership contract (Table.PutBatch): a Value slice a scan delivered
// may be retained without copying, and so may a row key. It retains the
// values and row keys delivered from every source a read takes them from —
// the memtable, a flushed segment through a block-cache miss, then a hit,
// then a re-decode after the cache evicted it, a compacted segment — then
// writes over the same rows (same-timestamp overwrites in the memtable among
// them), flushes and compacts again, and requires every retained slice to
// still hold the bytes it was delivered with and every retained key to
// still name its row.
func TestDeliveredValuesAreNeverRewritten(t *testing.T) {
	const rows = 200
	type retained struct {
		source, row string // row is the delivered key itself
		wantRow     string
		value       []byte // the delivered slice itself
		want        string // its bytes at delivery
	}
	var kept []retained
	opts := DefaultStoreOptions()
	opts.FlushThresholdBytes = 1 << 30
	opts.BlockSizeBytes = 256
	opts.CompactionTrigger = 2
	opts.BlockCache = NewBlockCache(1 << 20)
	s, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	write := func(round int) {
		t.Helper()
		for i := 0; i < rows; i++ {
			v := fmt.Sprintf("round-%d-row-%04d-%s", round, i, strings.Repeat("v", i%50))
			if err := s.ApplyBatch([]Cell{{Row: fmt.Sprintf("r%04d", i), Qualifier: "q", Timestamp: int64(round), Value: []byte(v)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush := func() {
		t.Helper()
		if err := flushNow(s); err != nil {
			t.Fatal(err)
		}
	}
	// retain scans every row and keeps each delivered value; decoded
	// says whether the scan must have decoded blocks (a cache miss) or
	// served every block from the cache.
	retain := func(source string, decoded bool) {
		t.Helper()
		st := &obs.QueryStats{}
		n := 0
		err := s.MultiScanCtx(obs.WithQueryStats(context.Background(), st), []ScanRange{{}}, 0, func(res RowResult) bool {
			v, _ := res.Get("q")
			kept = append(kept, retained{source: source, row: res.Row, wantRow: fmt.Sprintf("r%04d", n), value: v, want: string(v)})
			n++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != rows {
			t.Fatalf("%s: scan delivered %d rows, want %d", source, n, rows)
		}
		if got := st.Snapshot().BlocksDecoded > 0; got != decoded {
			t.Fatalf("%s: scan decoded %d blocks", source, st.Snapshot().BlocksDecoded)
		}
	}

	write(1)
	retain("memtable", false)
	flush()
	retain("segment, block-cache miss", true)
	retain("segment, block-cache hit", false)
	opts.BlockCache.Release()
	retain("segment, re-decoded after eviction", true)
	write(2)
	flush()
	if s.Stats().BackgroundCompactions == 0 {
		t.Fatal("the two flushed segments were not compacted")
	}
	retain("compacted segment, block-cache miss", true)

	// More of everything over the same rows.
	write(3)
	write(3)
	flush()
	write(4)
	flush()
	write(5)
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	retain("after rewrites", true)
	for _, k := range kept {
		if k.row != k.wantRow {
			t.Fatalf("%s: row %s delivered as %q", k.source, k.wantRow, k.row)
		}
		if string(k.value) != k.want {
			t.Fatalf("%s: value of %s delivered as %q now reads %q", k.source, k.row, k.want, k.value)
		}
	}
}

// TestCompactedBoundsOwnTheirBytes pins why blockBuilder.finish clones a
// block's bounds: a compaction's input rows are substrings of the arenas
// its inputs' blocks decoded into, and a bound that kept one would pin a
// whole arena for the life of the compacted segment. It merges two
// segments the way compactSegments does, keeping the merged cells, and
// requires no bound of the output to point into any of their row keys.
func TestCompactedBoundsOwnTheirBytes(t *testing.T) {
	cfg := segmentConfig{blockSize: 256}
	var inputs []*segment
	for id := uint64(1); id <= 2; id++ {
		var cells []Cell
		for i := 0; i < 300; i++ {
			cells = append(cells, Cell{Row: fmt.Sprintf("user-%06d", i), Qualifier: "v", Timestamp: int64(id), Value: []byte("0123456789")})
		}
		s, err := newSegment(id, cells, cfg)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append([]*segment{s}, inputs...)
	}
	its := make([]cellIterator, len(inputs))
	for i, s := range inputs {
		its[i] = s.iteratorNoCache(&blockScanStats{})
	}
	var merged []Cell
	for m := newMergeIterator(its); m.valid(); m.next() {
		merged = append(merged, *m.cell())
	}
	out, err := newSegment(3, merged, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.blocks) < 4 {
		t.Fatalf("compacted segment has %d blocks, want several", len(out.blocks))
	}
	within := func(s, in string) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(in)))
		return len(s) > 0 && len(in) > 0 && p >= lo && p < lo+uintptr(len(in))
	}
	bounds := []string{out.minRow, out.maxRow}
	for i := range out.blocks {
		bounds = append(bounds, out.blocks[i].minRow, out.blocks[i].maxRow)
	}
	for _, b := range bounds {
		for i := range merged {
			if within(b, merged[i].Row) {
				t.Fatalf("bound %q shares memory with the decoded input row %q", b, merged[i].Row)
			}
		}
	}
}
