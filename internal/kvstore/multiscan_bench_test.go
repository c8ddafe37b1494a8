package kvstore

import (
	"context"
	"fmt"
	"testing"
)

// benchScanStore builds a store with nRows rows spread over several
// segments plus a memtable tail, and K sorted disjoint single-user-style
// ranges — the shape of a personalized query's per-region read.
func benchScanStore(b *testing.B, nRows, nRanges int) (*Store, []ScanRange) {
	b.Helper()
	opts := DefaultStoreOptions()
	opts.FlushThresholdBytes = 1 << 30
	opts.CompactionTrigger = 100
	s, err := NewStore(opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nRows; i++ {
		if err := s.ApplyBatch([]Cell{{Row: fmt.Sprintf("r%07d", i), Qualifier: "q", Timestamp: 1, Value: []byte("0123456789abcdef")}}); err != nil {
			b.Fatal(err)
		}
		if i%(nRows/4+1) == nRows/8 {
			if err := flushNow(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	ranges := make([]ScanRange, 0, nRanges)
	stride := nRows / nRanges
	for i := 0; i < nRanges; i++ {
		lo := i * stride
		ranges = append(ranges, ScanRange{
			Start: fmt.Sprintf("r%07d", lo),
			Stop:  fmt.Sprintf("r%07d", lo+stride/4+1),
		})
	}
	return s, ranges
}

// BenchmarkScanPathNScan is N one-range calls against BenchmarkScanPathMulti's
// one multi-range call. Both run the MultiScanCtx loop; what the N calls pay
// on top is a lock acquisition, an iterator set and a merge view per range.
func BenchmarkScanPathNScan(b *testing.B) {
	s, ranges := benchScanStore(b, 20000, 500)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := 0
		for _, rg := range ranges {
			err := s.MultiScanCtx(ctx, []ScanRange{rg}, 0, func(RowResult) bool {
				rows++
				return true
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		if rows == 0 {
			b.Fatal("no rows scanned")
		}
	}
}

// BenchmarkScanPathMulti is the multi-range kernel serving the same ranges
// with one lock, one iterator set and seeks between ranges.
func BenchmarkScanPathMulti(b *testing.B) {
	s, ranges := benchScanStore(b, 20000, 500)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := 0
		err := s.MultiScanCtx(ctx, ranges, 0, func(RowResult) bool {
			rows++
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
		if rows == 0 {
			b.Fatal("no rows scanned")
		}
	}
}
