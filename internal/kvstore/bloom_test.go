package kvstore

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestBloomFilterNoFalseNegatives(t *testing.T) {
	b := newBloomFilter(1000)
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("u%012d|t%013d", i, i*17)
		b.add(keys[i])
	}
	for _, k := range keys {
		if !b.mayContain(k) {
			t.Fatalf("false negative for %q", k)
		}
	}
}

func TestBloomFilterFalsePositiveRate(t *testing.T) {
	b := newBloomFilter(5000)
	for i := 0; i < 5000; i++ {
		b.add(fmt.Sprintf("present-%d", i))
	}
	fp := 0
	probes := 20000
	for i := 0; i < probes; i++ {
		if b.mayContain(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / float64(probes)
	// Sized for ~1%; accept up to 3%.
	if rate > 0.03 {
		t.Errorf("false positive rate %.4f too high", rate)
	}
}

func TestBloomFilterEmptyAndTiny(t *testing.T) {
	b := newBloomFilter(0)
	if b.mayContain("anything") {
		t.Error("empty filter must reject")
	}
	b.add("x")
	if !b.mayContain("x") {
		t.Error("added key must be contained")
	}
}

func TestBloomSkipsForeignSegments(t *testing.T) {
	// Build a store with several flushed segments of disjoint rows and
	// verify point reads stay correct (the bloom path) under random probes.
	opts := DefaultStoreOptions()
	opts.FlushThresholdBytes = 1 << 30
	s, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	written := map[string]string{}
	for seg := 0; seg < 5; seg++ {
		for i := 0; i < 200; i++ {
			row := fmt.Sprintf("seg%d-row%04d", seg, i)
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
	// Present rows resolve correctly.
	for row, want := range written {
		if rng.Intn(10) != 0 {
			continue // sample
		}
		res, err := s.Get(row)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := res.Get("q"); !ok || string(v) != want {
			t.Fatalf("row %s = %q/%v, want %q", row, v, ok, want)
		}
	}
	// Absent rows resolve empty.
	for i := 0; i < 100; i++ {
		res, err := s.Get(fmt.Sprintf("ghost-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Empty() {
			t.Fatalf("ghost row returned %v", res.Cells)
		}
	}
}

// BenchmarkGetWithBloomFilters measures point reads against a store with
// many segments where the probed rows live in exactly one segment — the
// case the per-segment Bloom filters accelerate.
func BenchmarkGetWithBloomFilters(b *testing.B) {
	opts := DefaultStoreOptions()
	opts.FlushThresholdBytes = 1 << 30
	opts.CompactionTrigger = 1 << 30 // keep segments separate
	s, err := NewStore(opts)
	if err != nil {
		b.Fatal(err)
	}
	const segments = 16
	const rowsPerSeg = 2000
	for seg := 0; seg < segments; seg++ {
		for i := 0; i < rowsPerSeg; i++ {
			if err := s.ApplyBatch([]Cell{{Row: fmt.Sprintf("s%02d-r%05d", seg, i), Qualifier: "q", Timestamp: 1, Value: []byte("value")}}); err != nil {
				b.Fatal(err)
			}
		}
		if err := flushNow(s); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := fmt.Sprintf("s%02d-r%05d", rng.Intn(segments), rng.Intn(rowsPerSeg))
		if _, err := s.Get(row); err != nil {
			b.Fatal(err)
		}
	}
}
