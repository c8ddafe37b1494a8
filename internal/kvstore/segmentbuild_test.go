package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
)

// newSegment builds a segment from a cell slice — sorted by compareCells,
// no two equal — through the segment builder a flush or a compaction feeds
// a cell at a time.
func newSegment(id uint64, cells []Cell, cfg segmentConfig) (*segment, error) {
	b := newSegmentBuilder(id, cfg)
	for i := range cells {
		if err := b.add(&cells[i]); err != nil {
			return nil, err
		}
	}
	return b.finish(), nil
}

// requireSameSegment fails unless got and want are block for block the
// same segment: payload bytes, cell count and row bounds of every block,
// and the segment's logical and resident bytes and cell count.
func requireSameSegment(t *testing.T, what string, got, want *segment) {
	t.Helper()
	if got.bytes != want.bytes || got.encodedBytes != want.encodedBytes || got.numCells != want.numCells ||
		got.minRow != want.minRow || got.maxRow != want.maxRow || len(got.blocks) != len(want.blocks) {
		t.Fatalf("%s: %d cells, %d logical / %d resident bytes, %d blocks, rows [%q, %q]; want %d, %d / %d, %d, [%q, %q]",
			what, got.numCells, got.bytes, got.encodedBytes, len(got.blocks), got.minRow, got.maxRow,
			want.numCells, want.bytes, want.encodedBytes, len(want.blocks), want.minRow, want.maxRow)
	}
	for i := range got.blocks {
		g, w := &got.blocks[i], &want.blocks[i]
		if !bytes.Equal(g.data, w.data) || g.count != w.count || g.minRow != w.minRow || g.maxRow != w.maxRow {
			t.Fatalf("%s: block %d holds %d cells in %d bytes over [%q, %q], want %d in %d over [%q, %q]",
				what, i, g.count, len(g.data), g.minRow, g.maxRow, w.count, len(w.data), w.minRow, w.maxRow)
		}
	}
}

// genBuildCells draws n cells with keys unique within the draw from a small
// shared domain, so that draws overlap one another: rows of several
// qualifiers and versions (which straddle the small test blocks' cuts),
// timestamps that repeat across draws, about one tombstone in seven, and
// values that name the draw, so a newest-wins error shows in the bytes.
func genBuildCells(rng *rand.Rand, n, rows int, tag string) []Cell {
	seen := make(map[cellKey]bool)
	var cells []Cell
	for len(cells) < n {
		c := Cell{
			Row:       fmt.Sprintf("user-%05d", rng.Intn(rows)),
			Qualifier: fmt.Sprintf("q%d", rng.Intn(4)),
			Timestamp: int64(1 + rng.Intn(12)),
			Tombstone: rng.Intn(7) == 0,
		}
		if seen[keyOf(&c)] {
			continue
		}
		seen[keyOf(&c)] = true
		if !c.Tombstone {
			c.Value = []byte(fmt.Sprintf("%s-%d", tag, rng.Intn(1<<uint(rng.Intn(20)))))
		}
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return compareCells(&cells[i], &cells[j]) < 0 })
	return cells
}

// cellKey is what compareCells orders by: two cells with one key are one
// version, and the newer source's shadows the older's.
type cellKey struct {
	row, qual string
	ts        int64
	tombstone bool
}

func keyOf(c *Cell) cellKey { return cellKey{c.Row, c.Qualifier, c.Timestamp, c.Tombstone} }

// newestWins is the brute-force merge a compaction must equal: every key
// once, with the value of the newest source holding it.
func newestWins(newestFirst [][]Cell) []Cell {
	seen := make(map[cellKey]bool)
	var out []Cell
	for _, cells := range newestFirst {
		for i := range cells {
			if !seen[keyOf(&cells[i])] {
				seen[keyOf(&cells[i])] = true
				out = append(out, cells[i])
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return compareCells(&out[i], &out[j]) < 0 })
	return out
}

// TestStreamedBuildsMatchSliceBuild holds the two streamed builds to the
// slice build over seeded random inputs: a compaction of overlapping
// segments equals newSegment over their brute-force newest-wins merge, and
// a flushed memtable equals newSegment over its sorted cells, block for
// block. It also requires the builder to refuse cells out of order or
// duplicated.
func TestStreamedBuildsMatchSliceBuild(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := segmentConfig{blockSize: 48 + rng.Intn(400)}
		rows := 20 + rng.Intn(200)

		k := 2 + rng.Intn(3)
		draws := make([][]Cell, k) // newest first
		inputs := make([]*segment, k)
		for i := range draws {
			draws[i] = genBuildCells(rng, 50+rng.Intn(400), rows, fmt.Sprintf("s%d", k-i))
			s, err := newSegment(uint64(k-i), draws[i], cfg)
			if err != nil {
				t.Fatal(err)
			}
			inputs[i] = s
		}
		merged := newestWins(draws)
		want, err := newSegment(99, merged, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := compactSegments(99, inputs, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requireSameSegment(t, fmt.Sprintf("seed %d: compaction of %d segments", seed, k), got, want)

		// The memtable overwrites an equal key in place: the last write wins.
		m := newMemtable(seed)
		var writes [][]Cell
		for i := 0; i < 3; i++ {
			w := genBuildCells(rng, 30+rng.Intn(300), rows, fmt.Sprintf("w%d", i))
			writes = append([][]Cell{w}, writes...)
			for _, c := range w {
				m.add(c)
			}
		}
		flushed, err := buildSegmentFrom(7, m, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err = newSegment(7, newestWins(writes), cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSegment(t, fmt.Sprintf("seed %d: flushed memtable", seed), flushed, want)

		i := 1 + rng.Intn(len(merged)-1)
		swapped := append([]Cell(nil), merged...)
		swapped[i-1], swapped[i] = swapped[i], swapped[i-1]
		if _, err := newSegment(8, swapped, cfg); err == nil {
			t.Fatalf("seed %d: cells %d and %d swapped built a segment", seed, i-1, i)
		}
		dup := append(append(append([]Cell(nil), merged[:i]...), merged[i-1]), merged[i:]...)
		if _, err := newSegment(8, dup, cfg); err == nil {
			t.Fatalf("seed %d: cell %d twice built a segment", seed, i-1)
		}
	}
}

// compactionFixture is four segments of rows interleaved across them, so
// the merge draws every cell from a different source than the last.
func compactionFixture(tb testing.TB, perSegment int) []*segment {
	tb.Helper()
	cfg := segmentConfig{blockSize: 1024}
	value := []byte("01234567")
	newestFirst := make([]*segment, 4)
	for i := range newestFirst {
		cells := make([]Cell, perSegment)
		for j := range cells {
			cells[j] = Cell{Row: fmt.Sprintf("user-%06d", 4*j+i), Qualifier: "v", Timestamp: int64(i + 1), Value: value}
		}
		s, err := newSegment(uint64(4-i), cells, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		newestFirst[i] = s
	}
	return newestFirst
}

// TestCompactionAllocsPerInputCell bounds what a compaction allocates per
// input cell by what it must: the output's resident bytes (payloads, bounds
// and block metadata) and the arenas its inputs' blocks decode their row
// keys and qualifiers into, twice over for size-class rounding and slice
// growth. Decoding each input block into a fresh cell slice adds a 72-byte
// Cell per input cell and fails it. Measured with the GC off.
func TestCompactionAllocsPerInputCell(t *testing.T) {
	inputs := compactionFixture(t, 2000)
	cells, arenas := 0, 0
	for _, s := range inputs {
		cells += s.numCells
		for i := range s.blocks {
			decoded, err := decodeBlockPayload(nil, s.blocks[i].data, s.blocks[i].count)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range decoded {
				arenas += len(c.Row) + len(c.Qualifier)
			}
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var out *segment
	var allocated uint64
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := compactSegments(9, inputs, segmentConfig{blockSize: 1024})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; run == 0 || n < allocated {
			out, allocated = s, n
		}
	}
	perCell := float64(allocated) / float64(cells)
	bound := 2 * float64(out.encodedBytes+arenas) / float64(cells)
	t.Logf("%.1f bytes allocated per input cell; bound %.1f (%d resident output bytes, %d arena bytes, %d cells)",
		perCell, bound, out.encodedBytes, arenas, cells)
	if perCell > bound {
		t.Fatalf("a compaction allocates %.1f bytes per input cell, over the %.1f its output and decoded arenas account for", perCell, bound)
	}
}

// TestRowRunsOutliveTheNextBlock: a row run aliases its decoded block, and
// rowRun loads the next block before it returns a block's last row, so a
// read-path iterator must decode each block into a fresh slice, with a
// block cache and without one; only a compaction's iterators reuse theirs.
// Every block here holds the same number of cells, so a reused slice would
// have each block's last row overwritten by the next block's (and an
// exhausted iterator would go on handing out its stale last block: the
// read stops at the cell count).
func TestRowRunsOutliveTheNextBlock(t *testing.T) {
	var cells []Cell
	for i := 0; i < 400; i++ {
		for _, q := range []string{"a", "b"} {
			cells = append(cells, Cell{Row: fmt.Sprintf("user-%06d", i), Qualifier: q, Timestamp: 1, Value: []byte(fmt.Sprintf("%06d", i))})
		}
	}
	for _, cache := range []*BlockCache{nil, NewBlockCache(1 << 20)} {
		s, err := newSegment(1, cells, segmentConfig{blockSize: 256, cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		m := newMergeIterator([]cellIterator{s.iterator(nil, &blockScanStats{})})
		var got, buf []Cell
		for run := m.nextRow(&buf); run != nil && len(got) <= len(cells); run = m.nextRow(&buf) {
			got = append(got, run...)
		}
		if !cellsEqual(got, cells) {
			t.Fatalf("cached=%t: %d blocks read back as %d cells that differ from the %d written", cache != nil, len(s.blocks), len(got), len(cells))
		}
	}
}

// BenchmarkFlush is one flush: a frozen memtable of 5 000 visit-shaped
// cells built into a segment.
func BenchmarkFlush(b *testing.B) {
	m := newMemtable(1)
	for _, c := range benchWriteCells(5000) {
		m.add(c)
	}
	cfg := segmentConfig{blockSize: DefaultBlockSize}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildSegmentFrom(1, m, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompaction is one compaction: four segments of 2 000 cells
// each, rows interleaved across them, merged into one.
func BenchmarkCompaction(b *testing.B) {
	inputs := compactionFixture(b, 2000)
	cfg := segmentConfig{blockSize: DefaultBlockSize}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compactSegments(9, inputs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
