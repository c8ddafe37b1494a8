//go:build !race

// The race detector changes what a scan allocates (its sync.Pool drops a
// quarter of what is put back), so this file is left out of -race builds.

package kvstore

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestMultiScanAllocsIndependentOfRanges: a multi-range scan writes each
// range's bounds into a pooled buffer just before it seeks to them, so what
// it allocates — the iterator set, its merge, the row buffer — is the same
// over 1 000 ranges as over 10. The store holds 4 000 rows written in random
// order over three segments and the memtable, so every range reads from
// several live sources and no segment is pruned.
func TestMultiScanAllocsIndependentOfRanges(t *testing.T) {
	opts := DefaultStoreOptions()
	opts.FlushThresholdBytes = 1 << 30 // manual flushes only
	opts.CompactionTrigger = 1 << 20   // keep every flushed segment
	s, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	const rows = 4000
	for i, n := range rng.Perm(rows) {
		if err := s.ApplyBatch([]Cell{{Row: fmt.Sprintf("r%05d", n), Qualifier: "q", Timestamp: 1, Value: []byte("v")}}); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 999 && i < rows-1000 {
			if err := flushNow(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := s.Stats(); st.Segments != 3 || st.MemtableCells != 1000 {
		t.Fatalf("fixture cannot tell: %d segments, %d memtable cells", st.Segments, st.MemtableCells)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	scan := func(n int) float64 {
		// n ranges of two rows each, spread evenly over the key space.
		ranges := make([]ScanRange, n)
		for i := range ranges {
			at := i * rows / n
			ranges[i] = ScanRange{Start: fmt.Sprintf("r%05d", at), Stop: fmt.Sprintf("r%05d", at+2)}
		}
		run := func() {
			got := 0
			if err := s.MultiScanCtx(context.Background(), ranges, 0, func(RowResult) bool { got++; return true }); err != nil {
				t.Fatal(err)
			}
			if got != 2*n {
				t.Fatalf("%d ranges delivered %d rows, want %d", n, got, 2*n)
			}
		}
		run()
		return testing.AllocsPerRun(20, run)
	}
	few, many := scan(10), scan(1000)
	t.Logf("one multi-range scan: %v allocations over 10 ranges, %v over 1000", few, many)
	if many != few {
		t.Errorf("a scan over 1000 ranges allocated %v times, over 10 ranges %v: a range must cost no allocation", many, few)
	}
}
