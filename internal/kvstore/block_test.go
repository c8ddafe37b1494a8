package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func buildTestCells(rng *rand.Rand, rows, qualsPerRow int) []Cell {
	var cells []Cell
	for r := 0; r < rows; r++ {
		row := fmt.Sprintf("user-%06d", r*3)
		for q := 0; q < qualsPerRow; q++ {
			cells = append(cells, Cell{
				Row:       row,
				Qualifier: fmt.Sprintf("q%03d", q),
				Timestamp: int64(1000 - q),
				Value:     []byte(fmt.Sprintf("value-%d-%d-%06d", r, q, rng.Intn(1000))),
				Tombstone: rng.Intn(10) == 0,
			})
		}
	}
	return cells
}

func TestBlockRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cells := buildTestCells(rng, 40, 5)
	var b blockBuilder
	for i := range cells {
		b.add(&cells[i])
	}
	h := b.finish()
	if h.count != len(cells) {
		t.Fatalf("count %d, want %d", h.count, len(cells))
	}
	if h.minRow != cells[0].Row || h.maxRow != cells[len(cells)-1].Row {
		t.Fatalf("bounds [%q, %q]", h.minRow, h.maxRow)
	}
	got, err := decodeBlockPayload(nil, h.data, h.count)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(cells) {
		t.Fatalf("decoded %d cells, want %d", len(got), len(cells))
	}
	for i := range cells {
		if got[i].Row != cells[i].Row || got[i].Qualifier != cells[i].Qualifier ||
			got[i].Timestamp != cells[i].Timestamp || got[i].Tombstone != cells[i].Tombstone ||
			!bytes.Equal(got[i].Value, cells[i].Value) {
			t.Fatalf("cell %d mismatch: got %v, want %v", i, got[i], cells[i])
		}
	}
}

// TestBlockPrefixCompressionShrinksSharedPrefixRows pins the row-key
// sharing: 64 cells whose 30-byte row keys differ only in their last digits
// must encode, entries, restart trailer and all, in fewer bytes than their
// row keys laid end to end. Without sharing every entry repeats its whole
// key and the block is larger than the keys alone.
func TestBlockPrefixCompressionShrinksSharedPrefixRows(t *testing.T) {
	var b blockBuilder
	var keyBytes int
	for i := 0; i < 64; i++ {
		c := Cell{Row: fmt.Sprintf("network/facebook/user/%08d", i), Qualifier: "q", Timestamp: 1, Value: []byte("v")}
		keyBytes += len(c.Row)
		b.add(&c)
	}
	if h := b.finish(); len(h.data) >= keyBytes {
		t.Fatalf("prefix-compressed block is %d bytes, its row keys alone %d", len(h.data), keyBytes)
	}
}

func TestDecodeBlockPayloadRejectsCorruption(t *testing.T) {
	var b blockBuilder
	for i := 0; i < 40; i++ {
		c := Cell{Row: fmt.Sprintf("row-%04d", i), Qualifier: "q", Timestamp: int64(i), Value: []byte("some value here")}
		b.add(&c)
	}
	h := b.finish()
	valid := h.data
	if _, err := decodeBlockPayload(nil, valid, h.count); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	// Truncations at every boundary must error, never panic.
	for n := 0; n < len(valid); n += 7 {
		if _, err := decodeBlockPayload(nil, valid[:n], -1); err == nil && n < len(valid) {
			// Some truncations still parse as a shorter valid block; what
			// matters is no panic and the count check catching them.
			if _, err := decodeBlockPayload(nil, valid[:n], h.count); err == nil {
				t.Fatalf("truncation to %d bytes decoded to the full cell count", n)
			}
		}
	}
	// Single-byte corruptions must error or decode to different cells,
	// never panic.
	for i := 0; i < len(valid); i += 11 {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		decodeBlockPayload(nil, mut, -1)
	}
}

// TestDecodeBlockAllocs pins the decode's allocations: the cell slice and
// the arena holding every row key and qualifier, whatever the cell count.
func TestDecodeBlockAllocs(t *testing.T) {
	var b blockBuilder
	for i := 0; i < 50; i++ {
		c := Cell{Row: fmt.Sprintf("user-%08d", i/2), Qualifier: fmt.Sprintf("q%d", i%2), Timestamp: int64(i), Value: []byte("some value here")}
		b.add(&c)
	}
	h := b.finish()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := decodeBlockPayload(nil, h.data, h.count); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Fatalf("decoding a %d-cell block allocates %.1f times, want 2", h.count, allocs)
	}
}
