package kvstore

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"modissense/internal/exec"
	"modissense/internal/obs"
)

// TestDeliveredValuesAreNeverRewritten pins the read half of the
// value-ownership contract (Table.PutBatch): a Value slice a scan delivered
// may be retained without copying. Under each block codec it retains the
// values delivered from every source a read takes them from — the memtable,
// a flushed segment through a block-cache miss and then a hit, a compacted
// segment — then writes over the same rows (same-timestamp overwrites in the
// memtable among them), flushes and compacts again, and requires every
// retained slice to still hold the bytes it was delivered with.
func TestDeliveredValuesAreNeverRewritten(t *testing.T) {
	const rows = 200
	type retained struct {
		source, row string
		value       []byte // the delivered slice itself
		want        string // its bytes at delivery
	}
	var kept []retained
	for _, codec := range []BlockCompression{BlockNone, BlockFlate, BlockSnappy} {
		opts := DefaultStoreOptions()
		opts.FlushThresholdBytes = 1 << 30
		opts.BlockSizeBytes = 256
		opts.BlockCompression = codec
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
			st := &exec.Stats{}
			n := 0
			err := s.MultiScanCtx(obs.WithQueryStats(context.Background(), st), []ScanRange{{}}, 0, func(res RowResult) bool {
				v, _ := res.Get("q")
				kept = append(kept, retained{source: fmt.Sprintf("%v %s", codec, source), row: res.Row, value: v, want: string(v)})
				n++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if n != rows {
				t.Fatalf("%v %s: scan delivered %d rows, want %d", codec, source, n, rows)
			}
			if got := st.Snapshot().BlocksDecoded > 0; got != decoded {
				t.Fatalf("%v %s: scan decoded %d blocks", codec, source, st.Snapshot().BlocksDecoded)
			}
		}

		write(1)
		retain("memtable", false)
		flush()
		retain("segment, block-cache miss", true)
		retain("segment, block-cache hit", false)
		write(2)
		flush()
		if s.Stats().BackgroundCompactions == 0 {
			t.Fatalf("%v: the two flushed segments were not compacted", codec)
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
	}
	for _, k := range kept {
		if string(k.value) != k.want {
			t.Fatalf("%s: value of %s delivered as %q now reads %q", k.source, k.row, k.want, k.value)
		}
	}
}
